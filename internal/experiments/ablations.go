package experiments

import (
	"math"
	"math/rand"
	"strconv"
	"time"

	"erms/internal/core"
	"erms/internal/hdfs"
	"erms/internal/metrics"
	"erms/internal/sim"
)

// AblationPlacementRow compares replica-deletion behaviour of the ERMS
// placement (Algorithm 1) against the stock policy when a hot file cools
// down. The paper's claim: with extras on standby nodes, shrinking "does
// not need to re-balance" — the always-on nodes' data never moves.
type AblationPlacementRow struct {
	Policy string
	// RemovalsFromPool counts deletions that hit standby-pool nodes
	// (harmless: the node powers down anyway).
	RemovalsFromPool int
	// RemovalsFromActive counts deletions on always-on nodes (each one
	// disturbs a node that keeps serving, i.e. would trigger balancer
	// work in real HDFS).
	RemovalsFromActive int
	// SkewMB is the imbalance the shrink leaves behind: the gap between
	// the fullest and the emptiest always-on node. Under Algorithm 1 it is
	// the base placement's own, since no always-on node lost a replica.
	SkewMB float64
}

// AblationPlacement grows a file from 3 to 8 replicas and shrinks it back,
// under (a) ERMS placement with a standby pool and (b) the default policy,
// counting where the shrink deletions landed.
func AblationPlacement() []AblationPlacementRow {
	run := func(erms bool) AblationPlacementRow {
		var tb *Testbed
		poolSet := map[hdfs.DatanodeID]bool{}
		if erms {
			tb = NewERMS(10, 8, core.DefaultThresholds(), time.Hour)
			for _, id := range tb.Cluster.Standby() {
				poolSet[id] = true
				tb.Cluster.Commission(id)
			}
		} else {
			tb = NewVanilla(18)
		}
		// Writer -1 spreads the base replicas so both variants start from
		// a balanced cluster; any post-shrink imbalance is the policy's.
		if _, err := tb.Cluster.CreateFile("/f", 512*MB, 3, -1); err != nil {
			panic(err)
		}
		step := func(target int) {
			done := false
			tb.Cluster.SetReplication("/f", target, hdfs.WholeAtOnce, func(err error) {
				if err != nil {
					panic(err)
				}
				done = true
			})
			for !done {
				if !tb.Engine.Step() {
					panic("replication stalled")
				}
			}
		}
		step(8)
		// Snapshot replica homes, then shrink and diff.
		f := tb.Cluster.File("/f")
		before := map[hdfs.BlockID]map[hdfs.DatanodeID]bool{}
		for _, bid := range f.Blocks {
			m := map[hdfs.DatanodeID]bool{}
			for _, r := range tb.Cluster.Replicas(bid) {
				m[r] = true
			}
			before[bid] = m
		}
		step(3)
		row := AblationPlacementRow{Policy: "default"}
		if erms {
			row.Policy = "erms-algorithm1"
		}
		for _, bid := range f.Blocks {
			after := map[hdfs.DatanodeID]bool{}
			for _, r := range tb.Cluster.Replicas(bid) {
				after[r] = true
			}
			for dn := range before[bid] {
				if !after[dn] {
					if poolSet[dn] {
						row.RemovalsFromPool++
					} else {
						row.RemovalsFromActive++
					}
				}
			}
		}
		minUsed, maxUsed := math.Inf(1), math.Inf(-1)
		for _, d := range tb.Cluster.Datanodes() {
			if !poolSet[d.ID] {
				minUsed, maxUsed = math.Min(minUsed, d.Used), math.Max(maxUsed, d.Used)
			}
		}
		row.SkewMB = (maxUsed - minUsed) / MB
		if tb.Manager != nil {
			tb.Manager.Stop()
		}
		return row
	}
	return []AblationPlacementRow{run(false), run(true)}
}

// AblationPlacementTable renders the comparison.
func AblationPlacementTable(rows []AblationPlacementRow) *metrics.Table {
	t := &metrics.Table{
		Title:   "Ablation: where cool-down deletions land (grow 3->8->3, 512 MB file)",
		Columns: []string{"policy", "removed_from_pool", "removed_from_active", "active_skew_MB"},
	}
	for _, r := range rows {
		t.AddRowValues(r.Policy, r.RemovalsFromPool, r.RemovalsFromActive, r.SkewMB)
	}
	return t
}

// AblationIdleRow measures foreground interference from management work.
type AblationIdleRow struct {
	Scheduling  string  // "idle-deferred" or "immediate"
	AvgReadSec  float64 // mean foreground read time while encodes pend
	EncodesDone int
}

// AblationIdleScheduling compares running erasure-encode jobs immediately
// versus deferring them until the cluster is idle, measuring what the
// encodes do to foreground read latency — the design reason ERMS runs
// space-reclaiming work through Condor's idle class.
func AblationIdleScheduling() []AblationIdleRow {
	run := func(immediate bool) AblationIdleRow {
		tb := NewVanilla(18)
		e := tb.Engine
		// Ten cold files to encode, one hot file being read.
		for i := 0; i < 10; i++ {
			if _, err := tb.Cluster.CreateFile("/cold"+strconv.Itoa(i), 640*MB, 3, -1); err != nil {
				panic(err)
			}
		}
		if _, err := tb.Cluster.CreateFile("/hot", 256*MB, 3, -1); err != nil {
			panic(err)
		}
		sched := condorLike(tb, immediate)
		for i := 0; i < 10; i++ {
			path := "/cold" + strconv.Itoa(i)
			sched.submit(func(done func(error)) {
				tb.Cluster.EncodeFile(path, 10, 4, done)
			})
		}
		// Foreground: sequential hot reads for 10 minutes.
		var reads metrics.Mean
		stop := false
		var pump func()
		pump = func() {
			if stop {
				return
			}
			start := e.Now()
			tb.Cluster.ReadFile(hdfs.ExternalClient, "/hot", func(r *hdfs.ReadResult) {
				if r.Err == nil {
					reads.Add((e.Now() - start).Seconds())
				}
				pump()
			})
		}
		for i := 0; i < 8; i++ {
			pump()
		}
		e.RunUntil(10 * time.Minute)
		stop = true
		e.RunUntil(40 * time.Minute) // idle window: deferred encodes run
		name := "idle-deferred"
		if immediate {
			name = "immediate"
		}
		return AblationIdleRow{
			Scheduling:  name,
			AvgReadSec:  reads.Value(),
			EncodesDone: sched.completed,
		}
	}
	return []AblationIdleRow{run(true), run(false)}
}

// condorLike is a minimal idle-aware job runner for the ablation (the full
// Condor scheduler is exercised elsewhere; this keeps the ablation about
// scheduling class only).
type ablationSched struct {
	tb        *Testbed
	immediate bool
	queue     []func(done func(error))
	running   bool
	completed int
}

func condorLike(tb *Testbed, immediate bool) *ablationSched {
	s := &ablationSched{tb: tb, immediate: immediate}
	sim.NewTicker(tb.Engine, 5*time.Second, func(time.Duration) { s.kick() })
	return s
}

func (s *ablationSched) submit(run func(done func(error))) {
	s.queue = append(s.queue, run)
	s.kick()
}

func (s *ablationSched) kick() {
	if s.running || len(s.queue) == 0 {
		return
	}
	if !s.immediate && s.tb.Cluster.ActiveReads() > 0 {
		return
	}
	job := s.queue[0]
	s.queue = s.queue[1:]
	s.running = true
	job(func(error) {
		s.running = false
		s.completed++
		s.kick()
	})
}

// AblationIdleTable renders the comparison.
func AblationIdleTable(rows []AblationIdleRow) *metrics.Table {
	t := &metrics.Table{
		Title:   "Ablation: encode scheduling class vs foreground read latency",
		Columns: []string{"scheduling", "avg_read_s", "encodes_done"},
	}
	for _, r := range rows {
		t.AddRowValues(r.Scheduling, r.AvgReadSec, r.EncodesDone)
	}
	return t
}

// ReliabilityRow is one Monte Carlo data-loss estimate.
type ReliabilityRow struct {
	Scheme      string // "replication-1", "replication-3", "rs(10,4)"
	NodesFailed int
	LossProb    float64
}

// Reliability estimates the probability that a 640 MB file loses data when
// f random datanodes fail simultaneously, for single replication, paper
// triplication, and the cold-data RS(10,4) layout — supporting the claim
// that erasure coding "doesn't hurt data reliability" while cutting
// storage threefold.
func Reliability(trials int, failures []int, seed int64) []ReliabilityRow {
	if trials <= 0 {
		trials = 2000
	}
	if len(failures) == 0 {
		failures = []int{1, 2, 3, 4, 5}
	}
	type scheme struct {
		name  string
		build func() (*Testbed, *hdfs.INode)
	}
	schemes := []scheme{
		{"replication-1", func() (*Testbed, *hdfs.INode) {
			tb := NewVanilla(18)
			f, err := tb.Cluster.CreateFile("/f", 640*MB, 1, -1)
			if err != nil {
				panic(err)
			}
			return tb, f
		}},
		{"replication-3", func() (*Testbed, *hdfs.INode) {
			tb := NewVanilla(18)
			f, err := tb.Cluster.CreateFile("/f", 640*MB, 3, -1)
			if err != nil {
				panic(err)
			}
			return tb, f
		}},
		{"rs(10,4)", func() (*Testbed, *hdfs.INode) {
			tb := NewVanilla(18)
			tb.Cluster.SetPlacementPolicy(core.NewPlacement(nil))
			f, err := tb.Cluster.CreateFile("/f", 640*MB, 3, -1)
			if err != nil {
				panic(err)
			}
			done := false
			tb.Cluster.EncodeFile("/f", 10, 4, func(err error) {
				if err != nil {
					panic(err)
				}
				done = true
			})
			for !done {
				if !tb.Engine.Step() {
					panic("encode stalled")
				}
			}
			return tb, f
		}},
	}
	var rows []ReliabilityRow
	for _, sc := range schemes {
		tb, f := sc.build()
		// Collect each block's replica homes and the file's stripe layout.
		holders := map[hdfs.BlockID][]hdfs.DatanodeID{}
		for _, ids := range [][]hdfs.BlockID{f.Blocks, f.Parity()} {
			for _, bid := range ids {
				holders[bid] = append([]hdfs.DatanodeID(nil), tb.Cluster.Replicas(bid)...)
			}
		}
		n := tb.Cluster.NumDatanodes()
		for _, fail := range failures {
			rng := rand.New(rand.NewSource(seed + int64(fail)))
			lost := 0
			for trial := 0; trial < trials; trial++ {
				dead := map[hdfs.DatanodeID]bool{}
				for _, idx := range rng.Perm(n)[:fail] {
					dead[hdfs.DatanodeID(idx)] = true
				}
				if fileLost(tb.Cluster, f, holders, dead) {
					lost++
				}
			}
			rows = append(rows, ReliabilityRow{
				Scheme:      sc.name,
				NodesFailed: fail,
				LossProb:    float64(lost) / float64(trials),
			})
		}
	}
	return rows
}

// fileLost reports whether the file is unrecoverable with the dead set:
// a plain file loses data when any block has no surviving replica; an
// encoded file loses data when a stripe has fewer than k surviving members.
func fileLost(c *hdfs.Cluster, f *hdfs.INode, holders map[hdfs.BlockID][]hdfs.DatanodeID, dead map[hdfs.DatanodeID]bool) bool {
	alive := func(bid hdfs.BlockID) bool {
		for _, dn := range holders[bid] {
			if !dead[dn] {
				return true
			}
		}
		return false
	}
	if !f.Encoded {
		for _, bid := range f.Blocks {
			if !alive(bid) {
				return true
			}
		}
		return false
	}
	k, _ := f.Geometry()
	stripes := (len(f.Blocks) + k - 1) / k
	for s := 0; s < stripes; s++ {
		lo, hi := s*k, (s+1)*k
		if hi > len(f.Blocks) {
			hi = len(f.Blocks)
		}
		surviving := 0
		for _, bid := range f.Blocks[lo:hi] {
			if alive(bid) {
				surviving++
			}
		}
		for _, pid := range f.Parity() {
			if b, _ := c.Block(pid); b.Group == s && alive(pid) {
				surviving++
			}
		}
		need := hi - lo
		if surviving < need {
			return true
		}
	}
	return false
}

// ReliabilityTable renders the Monte Carlo estimates.
func ReliabilityTable(rows []ReliabilityRow) *metrics.Table {
	t := &metrics.Table{
		Title:   "Reliability: P(data loss) under simultaneous node failures (640 MB file)",
		Columns: []string{"scheme", "nodes_failed", "loss_prob"},
	}
	for _, r := range rows {
		t.AddRowValues(r.Scheme, r.NodesFailed, r.LossProb)
	}
	return t
}

// AblationThresholdsTable renders the τ_M slice of the threshold sweep
// (one window, one seed) as the performance/overhead trade-off the paper
// notes: "We can get high performance with a high overhead cost if these
// thresholds are low".
func AblationThresholdsTable(rows []ThresholdSweepRow) *metrics.Table {
	t := &metrics.Table{
		Title:   "Ablation: tau_M sweep — performance vs management overhead",
		Columns: []string{"tau_M", "throughput_MBps", "peak_storage_GB", "replication_MB", "increase_jobs"},
	}
	for _, r := range rows {
		t.AddRowValues(r.TauM, r.Throughput, r.PeakGB, r.ReplicaMB, r.Increases)
	}
	return t
}
