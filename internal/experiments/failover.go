package experiments

import (
	"fmt"
	"time"

	"erms/internal/auditlog"
	"erms/internal/chaos"
	"erms/internal/core"
	"erms/internal/hdfs"
	"erms/internal/invariant"
	"erms/internal/metrics"
	"erms/internal/sim"
	"erms/internal/topology"
)

// FailoverConfig drives the namenode-failover study: how long a standby
// takes to catch up as the journal tail it must replay grows.
type FailoverConfig struct {
	// Seed drives the workload and the datanode fault storm.
	Seed int64
	// Nodes is the cluster size; default 24.
	Nodes int
	// Files is the initial namespace size; default 24.
	Files int
	// Duration is the run length; default 40 minutes.
	Duration time.Duration
	// Crashes is how many evenly spaced namenode crashes to measure;
	// default 4. The rolling checkpoint is taken once at the start, so the
	// tail replayed by crash k is k/Crashes of the run's journal — the
	// x-axis of the time-to-recover curve.
	Crashes int
}

func (c *FailoverConfig) applyDefaults() {
	if c.Nodes <= 0 {
		c.Nodes = 24
	}
	if c.Files <= 0 {
		c.Files = 24
	}
	if c.Duration <= 0 {
		c.Duration = 40 * time.Minute
	}
	if c.Crashes <= 0 {
		c.Crashes = 4
	}
}

// FailoverRow reports one namenode crash. Everything except RestoreMs is
// deterministic; RestoreMs measures this machine's wall clock.
type FailoverRow struct {
	AtMin        float64 // virtual crash time
	TailEntries  int     // journal entries replayed on top of the checkpoint
	CheckpointKB float64
	Files        int // namespace size at the crash
	Blocks       int
	DigestMatch  bool
	Consistent   bool
	Lost         int     // recoverable blocks lost (must be 0)
	RestoreMs    float64 // wall time to restore + replay (timing table only)
}

// FailoverDemo runs a journaled ERMS deployment through a read workload
// and a datanode fault storm, failing the namenode over at evenly spaced
// points. Each crash commissions a standby from the run-start checkpoint
// plus the journal tail, so the rows trace time-to-recover as a function
// of journal length — the knob a real deployment tunes with its
// checkpoint cadence.
func FailoverDemo(cfg FailoverConfig) []FailoverRow {
	cfg.applyDefaults()
	e := sim.NewEngine()
	topo := topology.New(topology.Config{Racks: 3, NodeCount: cfg.Nodes})
	c := hdfs.New(e, hdfs.Config{
		Topology: topo,
		Heartbeat: hdfs.HeartbeatConfig{
			Enabled:     true,
			DeadTimeout: 2 * time.Minute,
		},
	})
	c.SetJournal(auditlog.NewJournal())

	bs := c.Config().BlockSize
	for i := 0; i < cfg.Files; i++ {
		path := fmt.Sprintf("/fo/f%03d", i)
		if _, err := c.CreateFile(path, 3*bs, 3, -1); err != nil {
			panic(fmt.Sprintf("failover: create %s: %v", path, err))
		}
	}
	m := core.New(c, core.Config{})

	fo, err := chaos.NewFailover(chaos.FailoverConfig{
		Cluster: c,
		// One checkpoint for the whole run: crash k replays k/Crashes of
		// the journal, giving the recover-time-vs-tail-length curve.
		Interval: 2 * cfg.Duration,
		Audit: func(standby *hdfs.Cluster) []string {
			return invariant.Check(invariant.Target{Cluster: standby, AllowDataLoss: true})
		},
	})
	if err != nil {
		panic("failover: " + err.Error())
	}

	// Zipf-popular reads keep the judge deciding (replication changes are
	// the bulk of the journal) and keep transfers in flight at every crash.
	rng := sim.NewRand(cfg.Seed)
	zipf := sim.NewZipf(rng, 1.1, cfg.Files)
	items := make([]sim.Timed, 0, 2000)
	for i := 0; i < 2000; i++ {
		path := fmt.Sprintf("/fo/f%03d", zipf.Draw())
		client := topology.NodeID(rng.Intn(cfg.Nodes))
		at := time.Duration(rng.Int63n(int64(cfg.Duration)))
		items = append(items, sim.Timed{At: at, Fn: func() {
			c.ReadFile(client, path, nil)
		}})
	}
	e.AtBatch(items)

	// Namespace churn keeps the journal growing for the whole run — one
	// short-lived file per virtual minute, deleted ten minutes later — so
	// the tail replayed at crash k genuinely scales with k.
	churn := 0
	var tick func()
	tick = func() {
		path := fmt.Sprintf("/fo/tmp%04d", churn)
		churn++
		if _, err := c.CreateFile(path, bs, 2, -1); err == nil {
			e.Schedule(10*time.Minute, func() { _ = c.DeleteFile(path) })
		}
		if e.Now() < cfg.Duration {
			e.Schedule(time.Minute, tick)
		}
	}
	e.Schedule(time.Minute, tick)

	// Datanode faults ride alongside so crashes land mid-churn.
	plan := chaos.Storm(chaos.StormConfig{
		Seed:     cfg.Seed,
		Duration: cfg.Duration,
		Nodes:    stormNodes(cfg.Nodes),
		Racks:    []int{1, 2},
		Crashes:  3,
		Downtime: 3 * time.Minute,
	})
	plan.Failover = fo
	plan.Schedule(e, c)

	rows := make([]FailoverRow, 0, cfg.Crashes)
	for k := 1; k <= cfg.Crashes; k++ {
		at := cfg.Duration * time.Duration(k) / time.Duration(cfg.Crashes+1)
		e.Schedule(at, func() {
			res := fo.Crash()
			if res.Err != nil {
				panic("failover: " + res.Err.Error())
			}
			rows = append(rows, FailoverRow{
				AtMin:        res.At.Minutes(),
				TailEntries:  res.TailEntries,
				CheckpointKB: float64(res.CheckpointBytes) / 1024,
				Files:        c.Files(),
				Blocks:       c.LiveBlocks(),
				DigestMatch:  res.DigestMatch,
				Consistent:   res.ConsistencyOK,
				Lost:         res.RecoverableLost,
				RestoreMs:    res.RestoreWall.Seconds() * 1000,
			})
		})
	}

	e.RunUntil(cfg.Duration + 10*time.Minute)
	m.Stop()
	fo.Stop()
	return rows
}

// stormNodes selects the first half of the cluster as storm victims,
// keeping the rest stable so reads always have somewhere to go.
func stormNodes(n int) []hdfs.DatanodeID {
	ids := make([]hdfs.DatanodeID, 0, n/2)
	for i := 0; i < n/2; i++ {
		ids = append(ids, hdfs.DatanodeID(i))
	}
	return ids
}

// FailoverTable renders the deterministic half of the study — identical
// bytes on every machine, so it rides in the byte-stable figures stream.
func FailoverTable(rows []FailoverRow) *metrics.Table {
	t := &metrics.Table{
		Title: "Failover: standby rebuilt from checkpoint + journal tail at each crash (mid-storm)",
		Columns: []string{"crash_min", "tail_entries", "ckpt_KB",
			"files", "blocks", "digest_match", "consistent", "lost"},
	}
	for _, r := range rows {
		t.AddRowValues(r.AtMin, r.TailEntries, r.CheckpointKB,
			r.Files, r.Blocks, r.DigestMatch, r.Consistent, r.Lost)
	}
	return t
}

// FailoverTimingTable renders the wall-clock half: time-to-recover vs
// journal length on this machine. Not byte-stable.
func FailoverTimingTable(rows []FailoverRow) *metrics.Table {
	t := &metrics.Table{
		Title:   "Failover timing: wall-clock restore + replay vs journal tail length",
		Columns: []string{"crash_min", "tail_entries", "restore_ms"},
	}
	for _, r := range rows {
		t.AddRowValues(r.AtMin, r.TailEntries, r.RestoreMs)
	}
	return t
}
