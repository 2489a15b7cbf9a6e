package experiments

import (
	"fmt"
	"time"

	"erms"
	"erms/internal/hdfs"
	"erms/internal/metrics"
	"erms/internal/topology"
)

// Fig6Config sizes the TestDFSIO-style experiment: average read execution
// time under different replication factors and concurrent thread counts.
type Fig6Config struct {
	FileSize     float64 // default 1 GB
	Replications []int   // default 1..6
	Threads      []int   // default 7,14,21,28,35 ("from 7 to 35")
}

func (c *Fig6Config) applyDefaults() {
	if c.FileSize <= 0 {
		c.FileSize = 1 * GB
	}
	if len(c.Replications) == 0 {
		c.Replications = []int{1, 2, 3, 4, 5, 6}
	}
	if len(c.Threads) == 0 {
		c.Threads = []int{7, 14, 21, 28, 35}
	}
}

// Fig6Row is one cell of Figure 6.
type Fig6Row struct {
	Threads     int
	Replication int
	AvgExecSec  float64
}

// Fig6 measures DFSIO-style concurrent whole-file reads: high concurrency
// slows reads down, higher replication speeds them up.
func Fig6(cfg Fig6Config) []Fig6Row {
	cfg.applyDefaults()
	var rows []Fig6Row
	for _, threads := range cfg.Threads {
		for _, repl := range cfg.Replications {
			sys := erms.NewSystem(erms.Options{DisableERMS: true})
			c := sys.HDFS()
			if _, err := c.CreateFile("/dfsio", cfg.FileSize, repl, 0); err != nil {
				panic(err)
			}
			var exec metrics.Mean
			n := c.NumDatanodes()
			for i := 0; i < threads; i++ {
				client := topology.NodeID(i % n)
				c.ReadFile(client, "/dfsio", func(r *hdfs.ReadResult) {
					if r.Err == nil {
						exec.Add(r.Duration().Seconds())
					}
				})
			}
			sys.Engine().Run()
			rows = append(rows, Fig6Row{
				Threads: threads, Replication: repl, AvgExecSec: exec.Value(),
			})
		}
	}
	return rows
}

// Fig6Table renders the grid, one row per (threads, replication).
func Fig6Table(rows []Fig6Row) *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 6: TestDFSIO read — average execution time (s)",
		Columns: []string{"threads", "replication", "avg_exec_s"},
	}
	for _, r := range rows {
		t.AddRowValues(r.Threads, r.Replication, r.AvgExecSec)
	}
	return t
}

// Fig7Config sizes the replica-increase comparison.
type Fig7Config struct {
	// Sizes of the file whose replication is raised; default the paper's
	// 64 MB … 8 GB series.
	Sizes []float64
	// FromRepl/ToRepl bound the increase; default 3 -> 6.
	FromRepl, ToRepl int
}

func (c *Fig7Config) applyDefaults() {
	if len(c.Sizes) == 0 {
		c.Sizes = []float64{64 * MB, 128 * MB, 256 * MB, 512 * MB,
			1 * GB, 2 * GB, 4 * GB, 8 * GB}
	}
	if c.FromRepl <= 0 {
		c.FromRepl = 3
	}
	if c.ToRepl <= c.FromRepl {
		c.ToRepl = c.FromRepl + 3
	}
}

// Fig7Row compares the two increase strategies for one file size.
type Fig7Row struct {
	Size     float64
	WholeSec float64 // increase directly to the target factor
	ByOneSec float64 // raise one step at a time
}

// Fig7 measures the time to raise a file's replication by both strategies:
// "increasing the replica directly to the optimal one is a better choice."
func Fig7(cfg Fig7Config) []Fig7Row {
	cfg.applyDefaults()
	run := func(size float64, mode hdfs.ReplicationMode) float64 {
		sys := erms.NewSystem(erms.Options{DisableERMS: true})
		// Writer -1: the file's first replicas spread across the cluster
		// (it was produced by a distributed job), avoiding a synthetic
		// single-source hotspot.
		if _, err := sys.HDFS().CreateFile("/data", size, cfg.FromRepl, -1); err != nil {
			panic(err)
		}
		start := sys.Now()
		var took time.Duration
		sys.HDFS().SetReplication("/data", cfg.ToRepl, mode, func(err error) {
			if err != nil {
				panic(err)
			}
			took = sys.Now() - start
		})
		sys.Engine().Run()
		return took.Seconds()
	}
	var rows []Fig7Row
	for _, size := range cfg.Sizes {
		rows = append(rows, Fig7Row{
			Size:     size,
			WholeSec: run(size, hdfs.WholeAtOnce),
			ByOneSec: run(size, hdfs.OneByOne),
		})
	}
	return rows
}

// Fig7Table renders the comparison.
func Fig7Table(rows []Fig7Row) *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 7: time to increase replication, whole-at-once vs one-by-one (s)",
		Columns: []string{"file_size", "whole_s", "one_by_one_s"},
	}
	for _, r := range rows {
		t.AddRowValues(sizeLabel(r.Size), r.WholeSec, r.ByOneSec)
	}
	return t
}

func sizeLabel(size float64) string {
	if size >= GB {
		return fmt.Sprintf("%gGB", size/GB)
	}
	return fmt.Sprintf("%gMB", size/MB)
}
