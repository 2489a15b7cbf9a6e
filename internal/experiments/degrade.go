package experiments

import (
	"fmt"
	"time"

	"erms/internal/core"
	"erms/internal/hdfs"
	"erms/internal/metrics"
	"erms/internal/sim"
	"erms/internal/topology"
)

// DegradeConfig drives the graceful-degradation study: how much foreground
// read throughput survives a correlated rack outage as the repair
// pipeline's stream cap varies, with and without the safe-mode guard.
type DegradeConfig struct {
	// Seed drives the read workload.
	Seed int64
	// Nodes is the cluster size; default 18 (3 racks of 6).
	Nodes int
	// Files is the namespace size; default 24 (3 blocks each).
	Files int
	// Caps is the repair MaxStreams grid; -1 means unlimited (the flat
	// pre-pipeline behaviour). Default [-1, 16, 8, 4].
	Caps []int
}

func (c *DegradeConfig) applyDefaults() {
	if c.Nodes <= 0 {
		c.Nodes = 18
	}
	if c.Files <= 0 {
		c.Files = 36
	}
	if len(c.Caps) == 0 {
		c.Caps = []int{-1, 16, 8, 4}
	}
}

// DegradeRow reports one (repair cap, safe mode) variant. Everything is
// deterministic.
type DegradeRow struct {
	Cap          int     // repair MaxStreams (-1 = unlimited)
	SafeMode     bool    // guard enabled
	ReadMBps     float64 // foreground read throughput while the rack is dead
	ReadsDone    int     // reads completed inside the outage window
	RepairedMin  float64 // first time (minutes) with no under-replicated blocks after the mass death; 0 = not within the horizon
	Deferred     int     // repairs deferred by safe mode
	Throttled    int     // repair candidates past the stream cap
	SafeModeIn   int     // safe-mode entries
	UnderReplEnd int     // blocks still under-replicated at the horizon
	Lost         int     // unrecoverable blocks at the horizon (must be 0)
}

// DegradeDemo runs the same correlated failure against a grid of repair
// configurations. The timeline is fixed: a steady client read load runs
// for 30 minutes; rack 2 is partitioned at 10m, its nodes age to dead at
// 12m (releasing ~a third of all replicas at once), the rack heals at 20m
// and its nodes restart — with empty disks — at 20m30s. The row metric is
// foreground read throughput inside the 12m–20m window, when repair
// traffic competes with clients for the fabric.
//
// Two effects should be visible: capping repair streams returns fabric
// bandwidth to clients (ReadMBps rises as Cap falls), and the safe-mode
// guard defers the repair storm entirely while the cluster is below its
// node threshold (Deferred > 0, and ReadMBps is insensitive to Cap).
func DegradeDemo(cfg DegradeConfig) []DegradeRow {
	cfg.applyDefaults()
	rows := make([]DegradeRow, 0, 2*len(cfg.Caps))
	for _, safeMode := range []bool{false, true} {
		for _, cap := range cfg.Caps {
			rows = append(rows, degradeRun(cfg, cap, safeMode))
		}
	}
	return rows
}

const (
	degradeHorizon     = 35 * time.Minute
	degradeOutageStart = 10 * time.Minute
	degradeDeadAt      = 12 * time.Minute // outage start + DeadTimeout
	degradeHeal        = 20 * time.Minute
	// The metric window brackets the repair burst right after the mass
	// death: an unthrottled pipeline fires every re-replication at once
	// here, so this is where fabric contention hits foreground reads.
	degradeWinEnd = degradeDeadAt + 2*time.Minute
)

func degradeRun(cfg DegradeConfig, cap int, safeMode bool) DegradeRow {
	e := sim.NewEngine()
	// An oversubscribed commodity fabric (3:1 rack uplinks, disk-bound
	// nodes): recovery traffic and clients genuinely fight over the same
	// links, as on the hardware the paper targets. The stock testbed fabric
	// is fast enough to absorb this cluster's whole repair storm unnoticed,
	// which would make every variant read identically.
	topo := topology.New(topology.Config{
		Racks: 3, NodeCount: cfg.Nodes,
		DiskBW:       40 * topology.MB,
		NICBW:        60 * topology.MB,
		RackUplinkBW: 120 * topology.MB,
	})
	c := hdfs.New(e, hdfs.Config{
		Topology: topo,
		Heartbeat: hdfs.HeartbeatConfig{
			Enabled:     true,
			DeadTimeout: degradeDeadAt - degradeOutageStart,
		},
		SafeMode: hdfs.SafeModeConfig{
			Enabled:       safeMode,
			NodeThreshold: 0.75, // trips when a full rack (6/18) goes dark
			Dwell:         time.Minute,
		},
	})
	bs := hdfs.BlockSize
	for i := 0; i < cfg.Files; i++ {
		path := fmt.Sprintf("/deg/f%03d", i)
		if _, err := c.CreateFile(path, 3*bs, 3, -1); err != nil {
			panic(fmt.Sprintf("degrade: create %s: %v", path, err))
		}
	}
	perNode := 2
	if cap < 0 {
		perNode = -1 // the unthrottled baseline lifts both caps
	}
	m := core.New(c, core.Config{
		JudgePeriod: 24 * time.Hour, // keep the judge quiet; this is a repair study
		Repair:      core.RepairConfig{MaxStreams: cap, MaxStreamsPerNode: perNode},
	})

	// Steady foreground load: one whole-file read per second from clients
	// in the two surviving racks, round-robin over the namespace. The
	// window metric only counts reads that finish inside the post-death
	// burst.
	var winBytes float64
	winReads := 0
	rng := sim.NewRand(cfg.Seed)
	survivors := 2 * cfg.Nodes / 3 // nodes in racks 0 and 1
	for at := time.Duration(0); at < degradeHorizon; at += time.Second {
		at := at
		client := topology.NodeID(rng.Intn(survivors))
		path := fmt.Sprintf("/deg/f%03d", rng.Intn(cfg.Files))
		e.At(at, func() {
			c.ReadFile(client, path, func(r *hdfs.ReadResult) {
				if r.Err != nil {
					return
				}
				if r.End >= degradeDeadAt && r.End < degradeWinEnd {
					winBytes += r.Bytes
					winReads++
				}
			})
		})
	}

	// Recovery-time probe: the first 15s sample after the mass death with
	// nothing left under-replicated. Probing starts half a minute past the
	// dead timeout so a not-yet-fired heartbeat tick can't read as "all
	// repaired".
	repairedAt := time.Duration(0)
	for at := degradeDeadAt + 30*time.Second; at < degradeHorizon; at += 15 * time.Second {
		at := at
		e.At(at, func() {
			if repairedAt == 0 && len(c.UnderReplicated()) == 0 {
				repairedAt = at
			}
		})
	}

	rack := 2
	e.At(degradeOutageStart, func() { c.PartitionRack(rack) })
	e.At(degradeHeal, func() { c.HealRack(rack) })
	e.At(degradeHeal+30*time.Second, func() {
		for _, d := range c.Datanodes() {
			if topo.Rack(topology.NodeID(d.ID)) == rack {
				c.Restart(d.ID)
			}
		}
	})

	e.RunUntil(degradeHorizon)
	m.Stop()

	st := m.Stats()
	return DegradeRow{
		Cap:          cap,
		SafeMode:     safeMode,
		ReadMBps:     winBytes / topology.MB / (degradeWinEnd - degradeDeadAt).Seconds(),
		ReadsDone:    winReads,
		RepairedMin:  repairedAt.Minutes(),
		Deferred:     st.RepairsDeferred,
		Throttled:    st.RepairsThrottled,
		SafeModeIn:   c.Metrics().SafeModeEntries,
		UnderReplEnd: len(c.UnderReplicated()),
		Lost:         len(c.UnrecoverableBlocks()),
	}
}

// DegradeTable renders the study; byte-identical on every machine.
func DegradeTable(rows []DegradeRow) *metrics.Table {
	t := &metrics.Table{
		Title: "Degrade: foreground read MB/s during the post-outage repair burst vs repair stream cap (12m-14m window)",
		Columns: []string{"cap", "safemode", "read_MBps", "reads", "repaired_min",
			"deferred", "throttled", "sm_entries", "under_repl_end", "lost"},
	}
	for _, r := range rows {
		cap := fmt.Sprintf("%d", r.Cap)
		if r.Cap < 0 {
			cap = "unlimited"
		}
		t.AddRowValues(cap, r.SafeMode, r.ReadMBps, r.ReadsDone, r.RepairedMin,
			r.Deferred, r.Throttled, r.SafeModeIn, r.UnderReplEnd, r.Lost)
	}
	return t
}
