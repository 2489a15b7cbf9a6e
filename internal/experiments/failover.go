package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"erms"
	"erms/internal/chaos"
	"erms/internal/hdfs"
	"erms/internal/invariant"
	"erms/internal/metrics"
	"erms/internal/sim"
)

// FailoverConfig drives the namenode-failover study: how long a promoted
// namenode takes to catch up as the journal tail it must replay grows.
type FailoverConfig struct {
	// Seed drives the workload and the datanode fault storm.
	Seed int64
	// Duration is the run length the crash points divide; default 40
	// minutes.
	Duration time.Duration
	// Crashes is how many evenly spaced crash points to measure; default 4.
	// Each is its own run from the same seed, snapshotted once after the
	// preload, so the tail replayed at crash k is k/(Crashes+1) of the
	// run's journal — the x-axis of the time-to-recover curve.
	Crashes int
}

// The study's deployment: 24 active datanodes (no standby pool) and a
// preloaded namespace of 24 three-block files.
const (
	failoverNodes = 24
	failoverFiles = 24
)

func (c *FailoverConfig) applyDefaults() {
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
	TailEntries  int     // journal entries replayed on top of the snapshot
	CheckpointKB float64
	Files        int // namespace size at the crash
	Blocks       int
	DigestMatch  bool
	Consistent   bool
	Lost         int     // recoverable blocks lost (must be 0)
	RestoreMs    float64 // wall time of FailoverShard (timing table only)
}

// FailoverDemo runs a journaled ERMS deployment through a read workload,
// namespace churn and a datanode fault storm, and fails its namenode over
// with System.FailoverShard at evenly spaced points. Each crash point is
// a run of its own from the same seed, so the rows trace time-to-recover
// as a function of journal length — the knob a real deployment tunes
// with its snapshot cadence — and each compares the promoted namenode
// with the deposed primary.
func FailoverDemo(cfg FailoverConfig) []FailoverRow {
	cfg.applyDefaults()
	rows := make([]FailoverRow, 0, cfg.Crashes)
	for k := 1; k <= cfg.Crashes; k++ {
		rows = append(rows, failoverRun(cfg, cfg.Duration*time.Duration(k)/time.Duration(cfg.Crashes+1)))
	}
	return rows
}

// failoverRun preloads the deployment, snapshots it, runs it to crashAt
// and fails shard 0 over there. The run ends at its failover, so the storm,
// scheduled on the deposed namenode, never has to follow the swap.
func failoverRun(cfg FailoverConfig, crashAt time.Duration) FailoverRow {
	sys := erms.NewSystem(erms.Options{
		Nodes:         failoverNodes,
		StandbyNodes:  -1,
		EnableJournal: true,
		Heartbeat:     erms.HeartbeatConfig{Enabled: true, DeadTimeout: 2 * time.Minute},
	})
	defer sys.Stop()
	e, bs := sys.Engine(), hdfs.BlockSize
	for i := 0; i < failoverFiles; i++ {
		path := fmt.Sprintf("/fo/f%03d", i)
		if err := sys.CreateFileOn(path, 3*bs, 3, -1); err != nil {
			panic(fmt.Sprintf("failover: create %s: %v", path, err))
		}
	}
	// The one snapshot of the run: crash k replays everything since.
	var ckpt bytes.Buffer
	if err := errors.Join(sys.SnapshotShards(), sys.Checkpoint(&ckpt)); err != nil {
		panic("failover: " + err.Error())
	}
	base := sys.Journal().NextSeq()

	// Zipf-popular reads keep the judge deciding (replication changes are
	// the bulk of the journal) and keep transfers in flight at every crash.
	rng := sim.NewRand(cfg.Seed)
	zipf := sim.NewZipf(rng, 1.1, failoverFiles)
	items := make([]sim.Timed, 0, 2000)
	for i := 0; i < 2000; i++ {
		path := fmt.Sprintf("/fo/f%03d", zipf.Draw())
		client := rng.Intn(failoverNodes)
		at := time.Duration(rng.Int63n(int64(cfg.Duration)))
		items = append(items, sim.Timed{At: at, Fn: func() { sys.Read(client, path, nil) }})
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
		if err := sys.CreateFileOn(path, bs, 2, -1); err == nil {
			e.Schedule(10*time.Minute, func() { _ = sys.Delete(path) })
		}
		e.Schedule(time.Minute, tick)
	}
	e.Schedule(time.Minute, tick)

	// Datanode faults ride alongside so crashes land mid-churn. The first
	// half of the cluster takes them, keeping the rest stable so reads
	// always have somewhere to go.
	victims := make([]hdfs.DatanodeID, failoverNodes/2)
	for i := range victims {
		victims[i] = hdfs.DatanodeID(i)
	}
	chaos.Storm(chaos.StormConfig{
		Seed:     cfg.Seed,
		Duration: cfg.Duration,
		Nodes:    victims,
		Racks:    []int{1, 2},
		Crashes:  3,
		Downtime: 3 * time.Minute,
	}).Schedule(e, sys.HDFS())

	sys.RunUntil(crashAt)
	old := sys.HDFS()
	tail := int(old.Journal().NextSeq() - base)
	start := time.Now()
	if err := sys.FailoverShard(0); err != nil {
		panic("failover: " + err.Error())
	}
	wall := time.Since(start)
	promoted := sys.HDFS()
	return FailoverRow{
		AtMin:        crashAt.Minutes(),
		TailEntries:  tail,
		CheckpointKB: float64(ckpt.Len()) / 1024,
		Files:        promoted.Files(),
		Blocks:       promoted.LiveBlocks(),
		DigestMatch:  promoted.StateDigest() == old.StateDigest(),
		Consistent:   len(invariant.Check(invariant.Target{Cluster: promoted, AllowDataLoss: true})) == 0,
		Lost:         recoverableLost(old, promoted),
		RestoreMs:    wall.Seconds() * 1000,
	}
}

// recoverableLost counts blocks readable on the primary (at least one
// live replica) that the standby either does not know or knows with no
// replicas. Blocks already unrecoverable on the primary do not count —
// a failover cannot be blamed for data the primary had lost too.
func recoverableLost(primary, standby *hdfs.Cluster) int {
	lost := 0
	for _, path := range primary.FilePaths() {
		f := primary.File(path)
		sf := standby.File(path)
		for _, ids := range [][]hdfs.BlockID{f.Blocks, f.Parity()} {
			for _, id := range ids {
				if len(primary.Replicas(id)) == 0 {
					continue
				}
				if sf == nil || len(standby.Replicas(id)) == 0 {
					lost++
				}
			}
		}
	}
	return lost
}

// FailoverTable renders the deterministic half of the study — identical
// bytes on every machine, so it rides in the byte-stable figures stream.
func FailoverTable(rows []FailoverRow) *metrics.Table {
	t := &metrics.Table{
		Title: "Failover: FailoverShard promotes snapshot + journal tail at each crash (mid-storm)",
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
		Title:   "Failover timing: wall-clock FailoverShard vs journal tail length",
		Columns: []string{"crash_min", "tail_entries", "restore_ms"},
	}
	for _, r := range rows {
		t.AddRowValues(r.AtMin, r.TailEntries, r.RestoreMs)
	}
	return t
}
