package experiments

import (
	"math"
	"strconv"
	"time"

	"erms"
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
	run := func(withERMS bool) AblationPlacementRow {
		opts := erms.Options{DisableERMS: true}
		if withERMS {
			opts = erms.Options{StandbyNodes: 8, JudgePeriod: time.Hour}
		}
		sys := erms.NewSystem(opts)
		c := sys.HDFS()
		poolSet := map[hdfs.DatanodeID]bool{}
		for _, id := range c.Standby() {
			poolSet[id] = true
			c.Commission(id)
		}
		// Writer -1 spreads the base replicas so both variants start from
		// a balanced cluster; any post-shrink imbalance is the policy's.
		if _, err := c.CreateFile("/f", 512*MB, 3, -1); err != nil {
			panic(err)
		}
		step := func(target int) {
			await(sys, func(done func(error)) { c.SetReplication("/f", target, hdfs.WholeAtOnce, done) })
		}
		step(8)
		// Snapshot replica homes, then shrink and diff.
		f := c.File("/f")
		before := map[hdfs.BlockID]map[hdfs.DatanodeID]bool{}
		for _, bid := range f.Blocks {
			m := map[hdfs.DatanodeID]bool{}
			for _, r := range c.Replicas(bid) {
				m[r] = true
			}
			before[bid] = m
		}
		step(3)
		row := AblationPlacementRow{Policy: "default"}
		if withERMS {
			row.Policy = "erms-algorithm1"
		}
		for _, bid := range f.Blocks {
			after := map[hdfs.DatanodeID]bool{}
			for _, r := range c.Replicas(bid) {
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
		for _, d := range c.Datanodes() {
			if !poolSet[d.ID] {
				minUsed, maxUsed = math.Min(minUsed, d.Used), math.Max(maxUsed, d.Used)
			}
		}
		row.SkewMB = (maxUsed - minUsed) / MB
		sys.Stop()
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
		sys := erms.NewSystem(erms.Options{DisableERMS: true})
		c, e := sys.HDFS(), sys.Engine()
		// Ten cold files to encode, one hot file being read.
		for i := 0; i < 10; i++ {
			if _, err := c.CreateFile("/cold"+strconv.Itoa(i), 640*MB, 3, -1); err != nil {
				panic(err)
			}
		}
		if _, err := c.CreateFile("/hot", 256*MB, 3, -1); err != nil {
			panic(err)
		}
		sched := condorLike(sys, immediate)
		for i := 0; i < 10; i++ {
			path := "/cold" + strconv.Itoa(i)
			sched.submit(func(done func(error)) {
				c.EncodeFile(path, 10, 4, done)
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
			c.ReadFile(hdfs.ExternalClient, "/hot", func(r *hdfs.ReadResult) {
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
	c         *hdfs.Cluster
	immediate bool
	queue     []func(done func(error))
	running   bool
	completed int
}

func condorLike(sys *erms.System, immediate bool) *ablationSched {
	s := &ablationSched{c: sys.HDFS(), immediate: immediate}
	sim.NewTicker(sys.Engine(), 5*time.Second, func(time.Duration) { s.kick() })
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
	if !s.immediate && s.c.ActiveReads() > 0 {
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

// ReliabilityRow is one exact data-loss count: of the Sets ways f of the
// datanodes can fail together, Lost leave the file unrecoverable.
type ReliabilityRow struct {
	Scheme      string // "replication-1", "replication-3", "rs(10,4)"
	NodesFailed int
	Lost, Sets  int
	LossProb    float64 // Lost / Sets
}

// Reliability counts, for every f of 1..5, how many of the C(18, f) sets
// of simultaneously failed datanodes lose a 640 MB file, under single
// replication, paper triplication and the cold-data RS(10,4) layout — the
// paper's claim that erasure coding "doesn't hurt data reliability" while
// cutting storage threefold. Every dead set is enumerated (at most
// C(18, 5) = 8,568), so the table is exact and has no seed.
func Reliability() []ReliabilityRow {
	schemes := []struct {
		name   string
		repl   int
		encode bool // RS(10,4) under ERMS placement
	}{{"replication-1", 1, false}, {"replication-3", 3, false}, {"rs(10,4)", 3, true}}
	var rows []ReliabilityRow
	for _, sc := range schemes {
		sys := erms.NewSystem(erms.Options{DisableERMS: true})
		c := sys.HDFS()
		if sc.encode {
			c.SetPlacementPolicy(core.NewPlacement(nil))
		}
		f, err := c.CreateFile("/f", 640*MB, sc.repl, -1)
		if err != nil {
			panic(err)
		}
		if sc.encode {
			await(sys, func(done func(error)) { c.EncodeFile("/f", 10, 4, done) })
		}
		// Collect each block's replica homes and the file's stripe layout.
		holders := map[hdfs.BlockID][]hdfs.DatanodeID{}
		for _, ids := range [][]hdfs.BlockID{f.Blocks, f.Parity()} {
			for _, bid := range ids {
				holders[bid] = append([]hdfs.DatanodeID(nil), c.Replicas(bid)...)
			}
		}
		n := c.NumDatanodes()
		for fail := 1; fail <= 5; fail++ {
			row := ReliabilityRow{Scheme: sc.name, NodesFailed: fail}
			eachDeadSet(make([]bool, n), 0, fail, func(dead []bool) {
				row.Sets++
				if fileLost(c, f, holders, dead) {
					row.Lost++
				}
			})
			row.LossProb = float64(row.Lost) / float64(row.Sets)
			rows = append(rows, row)
		}
	}
	return rows
}

// eachDeadSet calls visit once for every way to mark `left` more of
// dead[from:] failed, in lexicographic order; dead is restored after.
func eachDeadSet(dead []bool, from, left int, visit func(dead []bool)) {
	if left == 0 {
		visit(dead)
		return
	}
	for i := from; i <= len(dead)-left; i++ {
		dead[i] = true
		eachDeadSet(dead, i+1, left-1, visit)
		dead[i] = false
	}
}

// fileLost reports whether the file is unrecoverable with the dead set:
// a plain file loses data when any block has no surviving replica; an
// encoded file loses data when a stripe has fewer than k surviving members.
func fileLost(c *hdfs.Cluster, f *hdfs.INode, holders map[hdfs.BlockID][]hdfs.DatanodeID, dead []bool) bool {
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

// ReliabilityTable renders the exact counts.
func ReliabilityTable(rows []ReliabilityRow) *metrics.Table {
	t := &metrics.Table{
		Title:   "Reliability: P(data loss) over every set of simultaneously failed nodes (640 MB file)",
		Columns: []string{"scheme", "nodes_failed", "lost_sets", "dead_sets", "loss_prob"},
	}
	for _, r := range rows {
		t.AddRowValues(r.Scheme, r.NodesFailed, r.Lost, r.Sets, r.LossProb)
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
