package experiments

import (
	"time"

	"erms/internal/core"
	"erms/internal/hdfs"
	"erms/internal/metrics"
)

// StorageModel selects the cluster arrangement contrasted by Figures 8/9.
type StorageModel int

const (
	// AllActive keeps all 18 nodes active; the hot file's replicas share
	// nodes with the cluster's ordinary foreground work.
	AllActive StorageModel = iota
	// ActiveStandby keeps 10 active + 8 standby; extra replicas beyond the
	// default factor live on commissioned standby nodes that carry no
	// foreground work ("standby nodes might be better than active nodes
	// when the active nodes are heavily used").
	ActiveStandby
)

// String names the storage model for table headers.
func (m StorageModel) String() string {
	if m == AllActive {
		return "all-active"
	}
	return "active/standby"
}

// Fig89Config sizes the system-metric experiments (direct HDFS reads, no
// MapReduce, per the paper).
type Fig89Config struct {
	FileSize float64 // default 1 GB (the paper's file)
	// MaxClients bounds the search; default 150.
	MaxClients int
}

const (
	// backgroundPerNode is foreground sessions per active node.
	backgroundPerNode = 2
	// minClientRate is the per-client rate floor defining "could hold".
	minClientRate = 8 * MB
)

func (c *Fig89Config) applyDefaults() {
	if c.FileSize <= 0 {
		c.FileSize = 1 * GB
	}
	if c.MaxClients <= 0 {
		c.MaxClients = 150
	}
}

// buildFig89 creates the cluster for one model with the hot file at the
// given replication and the background load running. Foreground work runs
// on the always-active nodes only (18 for AllActive, the 10 active for
// ActiveStandby) — commissioned standby nodes are dedicated to hot data.
func buildFig89(model StorageModel, repl int, cfg Fig89Config) (*Testbed, *BackgroundLoad) {
	var tb *Testbed
	var fgNodes []hdfs.DatanodeID
	switch model {
	case AllActive:
		tb = NewVanilla(18)
		fgNodes = tb.Cluster.Active()
		if _, err := tb.Cluster.CreateFile("/hot", cfg.FileSize, repl, 0); err != nil {
			panic(err)
		}
	case ActiveStandby:
		th := core.DefaultThresholds()
		tb = NewERMS(10, 8, th, time.Hour /* judge manual */)
		fgNodes = tb.Cluster.Active() // the 10 always-on nodes
		base := min(repl, hdfs.DefaultReplication)
		if _, err := tb.Cluster.CreateFile("/hot", cfg.FileSize, base, 0); err != nil {
			panic(err)
		}
		if repl > base {
			// ERMS commissions standby nodes and places the extras there
			// (Algorithm 1).
			for _, id := range tb.Cluster.Standby() {
				tb.Cluster.Commission(id)
			}
			done := false
			tb.Cluster.SetReplication("/hot", repl, hdfs.WholeAtOnce, func(err error) {
				if err != nil {
					panic(err)
				}
				done = true
			})
			for !done {
				if !tb.Engine.Step() {
					panic("experiments: replication never completed")
				}
			}
		}
	}
	bg := StartBackgroundLoad(tb, backgroundPerNode, fgNodes)
	return tb, bg
}

// measureConcurrent runs n concurrent whole-file readers of /hot and
// returns the minimum and mean per-client throughput (MB/s) and the mean
// execution time (s). Readers are external application servers (as in the
// paper's system-metric experiments), so replica choice is purely
// load-balanced.
func measureConcurrent(tb *Testbed, n int, fileSize float64) (minTP, meanTP, meanExec float64) {
	var exec metrics.Mean
	var tps []float64
	doneCount := 0
	for i := 0; i < n; i++ {
		tb.Cluster.ReadFileAt(hdfs.ExternalClient, "/hot", i, func(r *hdfs.ReadResult) {
			doneCount++
			if r.Err != nil {
				return
			}
			exec.Add(r.Duration().Seconds())
			tps = append(tps, r.ThroughputMBps())
		})
	}
	// Run until all the hot-file readers finish (background load keeps the
	// event queue alive indefinitely, so run in bounded slices).
	for doneCount < n {
		tb.Engine.RunFor(5 * time.Second)
	}
	minTP = 1e18
	sum := 0.0
	for _, tp := range tps {
		if tp < minTP {
			minTP = tp
		}
		sum += tp
	}
	if len(tps) == 0 {
		return 0, 0, 0
	}
	return minTP, sum / float64(len(tps)), exec.Value()
}

// Fig8Row is one point of Figure 8: the maximum concurrent access count
// the replicas could hold.
type Fig8Row struct {
	Replication int
	Model       StorageModel
	MaxClients  int
}

// Fig8 finds, for each replication factor and storage model, the largest
// client count for which every client still achieves minClientRate.
func Fig8(cfg Fig89Config, replications []int) []Fig8Row {
	cfg.applyDefaults()
	if len(replications) == 0 {
		replications = []int{1, 2, 3, 4, 5, 6, 7, 8}
	}
	var rows []Fig8Row
	for _, model := range []StorageModel{AllActive, ActiveStandby} {
		for _, r := range replications {
			rows = append(rows, Fig8Row{
				Replication: r,
				Model:       model,
				MaxClients:  maxSustainable(model, r, cfg),
			})
		}
	}
	return rows
}

// maxSustainable binary-searches the largest sustainable client count.
// Every probe builds a fresh deterministic cluster.
func maxSustainable(model StorageModel, repl int, cfg Fig89Config) int {
	sustainable := func(n int) bool {
		tb, bg := buildFig89(model, repl, cfg)
		minTP, _, _ := measureConcurrent(tb, n, cfg.FileSize)
		bg.Stop()
		if tb.Manager != nil {
			tb.Manager.Stop()
		}
		return minTP*MB >= minClientRate*0.999
	}
	lo, hi := 0, cfg.MaxClients
	if !sustainable(1) {
		return 0
	}
	lo = 1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if sustainable(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Fig8Table renders the sweep.
func Fig8Table(rows []Fig8Row) *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 8: max concurrent accesses the replicas could hold (1 GB file)",
		Columns: []string{"replication", "model", "max_clients"},
	}
	for _, r := range rows {
		t.AddRowValues(r.Replication, r.Model.String(), r.MaxClients)
	}
	return t
}

// Fig9Row is one point of Figure 9 (fixed 70 concurrent clients).
type Fig9Row struct {
	Replication int
	Model       StorageModel
	Throughput  float64 // mean per-client MB/s (Fig 9a)
	AvgExecSec  float64 // mean execution time (Fig 9b)
}

// Fig9 measures reading throughput and execution time at a fixed
// concurrency (the paper uses 70) across replication factors and models.
func Fig9(cfg Fig89Config, clients int, replications []int) []Fig9Row {
	cfg.applyDefaults()
	if clients <= 0 {
		clients = 70
	}
	if len(replications) == 0 {
		replications = []int{2, 3, 4, 5, 6, 7, 8}
	}
	var rows []Fig9Row
	for _, model := range []StorageModel{AllActive, ActiveStandby} {
		for _, r := range replications {
			tb, bg := buildFig89(model, r, cfg)
			_, mean, execSec := measureConcurrent(tb, clients, cfg.FileSize)
			bg.Stop()
			if tb.Manager != nil {
				tb.Manager.Stop()
			}
			rows = append(rows, Fig9Row{
				Replication: r, Model: model, Throughput: mean, AvgExecSec: execSec,
			})
		}
	}
	return rows
}

// Fig9Table renders the sweep.
func Fig9Table(rows []Fig9Row) *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 9: throughput (a) and execution time (b) at 70 concurrent readers",
		Columns: []string{"replication", "model", "throughput_MBps", "avg_exec_s"},
	}
	for _, r := range rows {
		t.AddRowValues(r.Replication, r.Model.String(), r.Throughput, r.AvgExecSec)
	}
	return t
}
