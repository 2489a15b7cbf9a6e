package experiments

import (
	"time"

	"erms/internal/chaos"
	"erms/internal/core"
	"erms/internal/hdfs"
	"erms/internal/metrics"
	"erms/internal/sim"
	"erms/internal/topology"
	"erms/internal/workload"
)

// DurabilityConfig sizes the durability-under-chaos scenario: a full ERMS
// deployment with heartbeat failure detection and background scrubbing
// runs a heavy-tailed workload while a seeded fault storm crashes nodes,
// partitions racks, and corrupts replicas.
type DurabilityConfig struct {
	Seed int64
	// Duration is the storm + workload window; default 2h.
	Duration time.Duration
	// Files in the workload catalog; default 16.
	Files int
	// Crashes / Partitions / Corruptions size the storm; defaults 6/2/10.
	Crashes     int
	Partitions  int
	Corruptions int
	// Downtime is mean crashed-node downtime; default 12m (past the
	// 5m dead timeout, so crashes trigger real re-replication).
	Downtime time.Duration
}

func (c *DurabilityConfig) applyDefaults() {
	if c.Duration <= 0 {
		c.Duration = 2 * time.Hour
	}
	if c.Files <= 0 {
		c.Files = 16
	}
	if c.Crashes <= 0 {
		c.Crashes = 6
	}
	if c.Partitions <= 0 {
		c.Partitions = 2
	}
	if c.Corruptions <= 0 {
		c.Corruptions = 10
	}
	if c.Downtime <= 0 {
		c.Downtime = 12 * time.Minute
	}
}

// DurabilityResult reports what the storm did and how the system held up.
type DurabilityResult struct {
	FaultsApplied int
	FaultsSkipped int
	PerKind       map[string]int

	ReadsCompleted int
	ReadsFailed    int

	Repairs        int
	RepairsRetried int
	TTRP50         float64 // seconds, damage detected → block healthy
	TTRP99         float64
	CorruptFound   int
	CorruptFixed   int

	// DataLoss counts blocks with no clean replica and no erasure path at
	// quiescence — the headline durability number (0 is a pass).
	DataLoss int
	// UnderReplicated counts blocks still short of target at quiescence.
	UnderReplicated int
}

// Durability runs the scenario. Everything is seeded: the same config
// yields the same storm, the same workload, and the same result.
func Durability(cfg DurabilityConfig) DurabilityResult {
	cfg.applyDefaults()
	e := sim.NewEngine()
	h := newDurabilityCluster(e)
	// The storm hits always-active nodes only (crashing a powered-down
	// standby node is a no-op) and partitions any rack.
	victims := h.Active()
	m := core.New(h, core.Config{
		Thresholds:  core.Thresholds{TauM: 6, Window: 5 * time.Minute, ColdAge: 90 * time.Minute},
		JudgePeriod: 5 * time.Minute,
		Scrub:       hdfs.ScrubConfig{Period: 20 * time.Second, BlocksPerScan: 100},
	})

	trace := workload.Synthesize(workload.Config{
		Seed:             cfg.Seed,
		Duration:         cfg.Duration,
		NumFiles:         cfg.Files,
		MeanInterarrival: 10 * time.Second,
		MaxFileSize:      512 * MB,
	})
	workload.Preload(e, h, trace)
	var res DurabilityResult
	workload.ReplayReads(e, h, trace, func(r *hdfs.ReadResult) {
		if r.Err != nil {
			res.ReadsFailed++
		} else {
			res.ReadsCompleted++
		}
	})

	// Partitions heal in ~2m — inside the 5m dead timeout, so they must
	// cost no repair traffic; crashes last ~12m, so they must trigger full
	// repair.
	plan := chaos.Storm(chaos.StormConfig{
		Seed:        cfg.Seed,
		Duration:    cfg.Duration,
		Nodes:       victims,
		Racks:       []int{0, 1, 2},
		Crashes:     cfg.Crashes,
		Downtime:    cfg.Downtime,
		Partitions:  cfg.Partitions,
		Corruptions: cfg.Corruptions,
	})
	rep := plan.Schedule(e, h)

	e.RunUntil(cfg.Duration)
	// Quiescence: let in-flight repairs, retries, and scrub passes drain.
	e.RunFor(45 * time.Minute)
	m.Stop()

	st := m.Stats()
	res.FaultsApplied = rep.Applied
	res.FaultsSkipped = rep.Skipped
	res.PerKind = rep.PerKind
	res.Repairs = st.Repairs
	res.RepairsRetried = st.RepairsRetried
	res.TTRP50 = st.TimeToRepairP50
	res.TTRP99 = st.TimeToRepairP99
	res.CorruptFound = st.CorruptFound
	res.CorruptFixed = st.CorruptFixed
	res.DataLoss = len(h.UnrecoverableBlocks())
	res.UnderReplicated = len(h.UnderReplicated())
	return res
}

// newDurabilityCluster builds the scenario's HDFS: the paper's testbed
// with its 8-node standby pool spread across the racks, and heartbeat
// failure detection.
func newDurabilityCluster(e *sim.Engine) *hdfs.Cluster {
	topo := topology.New(topology.Config{})
	return hdfs.New(e, hdfs.Config{
		Topology:     topo,
		StandbyNodes: hdfs.SpreadStandby(topo, 8),
		Heartbeat: hdfs.HeartbeatConfig{
			Enabled:      true,
			Interval:     3 * time.Second,
			StaleTimeout: 30 * time.Second,
			DeadTimeout:  5 * time.Minute,
		},
	})
}

// DurabilityTable renders the scenario result.
func DurabilityTable(r DurabilityResult) *metrics.Table {
	t := &metrics.Table{
		Title:   "Durability under chaos: heartbeat detection + scrubbing + Condor retry",
		Columns: []string{"metric", "value"},
	}
	t.AddRowValues("faults applied", r.FaultsApplied)
	t.AddRowValues("faults skipped", r.FaultsSkipped)
	t.AddRowValues("reads completed", r.ReadsCompleted)
	t.AddRowValues("reads failed", r.ReadsFailed)
	t.AddRowValues("repair jobs", r.Repairs)
	t.AddRowValues("repair attempts retried", r.RepairsRetried)
	t.AddRowValues("time-to-repair p50 (s)", r.TTRP50)
	t.AddRowValues("time-to-repair p99 (s)", r.TTRP99)
	t.AddRowValues("corrupt replicas found", r.CorruptFound)
	t.AddRowValues("corrupt replicas fixed", r.CorruptFixed)
	t.AddRowValues("blocks lost (unrecoverable)", r.DataLoss)
	t.AddRowValues("blocks under-replicated", r.UnderReplicated)
	return t
}
