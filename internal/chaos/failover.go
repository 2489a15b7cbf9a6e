package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"erms/internal/hdfs"
	"erms/internal/sim"
)

// FailoverConfig wires the namenode-crash fault into a plan. The harness
// keeps a rolling checkpoint of the primary and, when a NamenodeCrash
// event fires, commissions a standby from that checkpoint plus the
// journal tail and verifies it against the still-live primary — the
// durable ground truth at the instant of the crash.
type FailoverConfig struct {
	// Engine is the primary's simulation engine.
	Engine *sim.Engine
	// Cluster is the primary namenode; it must have a journal attached
	// (hdfs.Cluster.SetJournal) before any namespace mutation.
	Cluster *hdfs.Cluster
	// NewStandby builds an empty cluster on the given engine with the same
	// durable configuration as the primary — the checkpoint's config
	// digest enforces the parts that matter. Heartbeat tuning may differ
	// (standbys typically run with the detector off).
	NewStandby func(*sim.Engine) *hdfs.Cluster
	// Interval between background checkpoints (default 5 minutes). The
	// first checkpoint is taken when the harness is created.
	Interval time.Duration
	// TruncateJournal discards journal entries the latest checkpoint makes
	// redundant, bounding memory across a long storm.
	TruncateJournal bool
	// Audit lists what is inconsistent about a restored standby; nil runs
	// the cluster's own ConsistencyErrors. Callers that can import
	// internal/invariant (this package cannot: core's tests use it) pass
	// its Check, which adds the placement-index reference scan.
	Audit func(*hdfs.Cluster) []string
}

// FailoverResult records one namenode crash and the standby that replaced
// it. Everything except RestoreWall is deterministic.
type FailoverResult struct {
	// At is the virtual time the namenode crashed.
	At time.Duration
	// CheckpointAge is how stale the rolling checkpoint was at the crash.
	CheckpointAge time.Duration
	// CheckpointBytes is the size of the restored checkpoint.
	CheckpointBytes int
	// TailEntries is the journal-tail length replayed on top of it.
	TailEntries int
	// RestoreWall is the real time spent restoring and replaying.
	RestoreWall time.Duration
	// DigestMatch reports whether the standby's StateDigest equals the
	// primary's at the crash instant.
	DigestMatch bool
	// ConsistencyOK reports whether the standby passes FailoverConfig.Audit.
	ConsistencyOK bool
	// RecoverableLost counts blocks that had at least one live replica on
	// the primary but are unknown (or replica-less) on the standby. Zero
	// means the failover lost nothing a real client could still read.
	RecoverableLost int
	// Zombie marks a CrashZombie drill: the crashed primary lingered past
	// the standby's promotion and its late mutations were probed against
	// the journal-epoch fence.
	Zombie bool
	// FencedRejected counts the zombie's probe mutations bounced by the
	// fence; FencedApplied counts any that slipped through (must be zero —
	// the epoch invariant oracle asserts it).
	FencedRejected int
	FencedApplied  int
	// Err is set when the standby could not be built at all.
	Err error
}

// Failover is the namenode-crash harness; attach it to a Plan via
// Plan.Failover so NamenodeCrash events have a target.
type Failover struct {
	cfg     FailoverConfig
	ticker  *sim.Ticker
	ckpt    []byte
	ckptAt  time.Duration
	ckptSeq uint64
	results []FailoverResult
}

// NewFailover builds the harness, takes the initial checkpoint, and starts
// the background checkpoint ticker.
func NewFailover(cfg FailoverConfig) (*Failover, error) {
	if cfg.Engine == nil || cfg.Cluster == nil || cfg.NewStandby == nil {
		return nil, fmt.Errorf("chaos: failover needs Engine, Cluster, and NewStandby")
	}
	if cfg.Cluster.Journal() == nil {
		return nil, fmt.Errorf("chaos: failover needs a journaled cluster (SetJournal before mutations)")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Minute
	}
	if cfg.Audit == nil {
		cfg.Audit = (*hdfs.Cluster).ConsistencyErrors
	}
	f := &Failover{cfg: cfg}
	if err := f.Snapshot(); err != nil {
		return nil, err
	}
	f.ticker = sim.NewTicker(cfg.Engine, cfg.Interval, func(time.Duration) {
		// A background snapshot that fails leaves the previous one in
		// place; the next Crash simply replays a longer tail.
		_ = f.Snapshot()
	})
	return f, nil
}

// Snapshot checkpoints the primary now and records the journal position
// the tail must resume from. Called automatically on the interval; call it
// directly to model an operator-triggered checkpoint.
func (f *Failover) Snapshot() error {
	var buf bytes.Buffer
	if err := f.cfg.Cluster.WriteCheckpoint(&buf); err != nil {
		return err
	}
	f.ckpt = buf.Bytes()
	f.ckptAt = f.cfg.Engine.Now()
	f.ckptSeq = f.cfg.Cluster.Journal().NextSeq()
	if f.cfg.TruncateJournal {
		f.cfg.Cluster.Journal().TruncateTo(f.ckptSeq)
	}
	return nil
}

// Stop cancels the background checkpoint ticker.
func (f *Failover) Stop() {
	if f.ticker != nil {
		f.ticker.Stop()
	}
}

// Results returns one entry per namenode crash, in order.
func (f *Failover) Results() []FailoverResult { return f.results }

// Crash fails the namenode over: a fresh standby cluster restores the
// rolling checkpoint, replays the journal tail, and is verified against
// the primary's durable state at this instant. The standby is then
// discarded and the simulation continues on the primary — the harness
// verifies recoverability in place rather than swapping namenodes
// mid-run, so one storm can absorb several crashes.
func (f *Failover) Crash() FailoverResult {
	now := f.cfg.Engine.Now()
	res := FailoverResult{
		At:              now,
		CheckpointAge:   now - f.ckptAt,
		CheckpointBytes: len(f.ckpt),
	}
	tail := f.cfg.Cluster.Journal().Tail(f.ckptSeq)
	if tail == nil {
		res.Err = fmt.Errorf("chaos: journal tail from seq %d unavailable", f.ckptSeq)
		f.results = append(f.results, res)
		return res
	}
	res.TailEntries = len(tail)

	start := time.Now()
	engine := sim.NewEngine()
	standby := f.cfg.NewStandby(engine)
	if err := standby.RestoreCheckpoint(bytes.NewReader(f.ckpt)); err != nil {
		res.Err = fmt.Errorf("chaos: standby restore: %w", err)
		f.results = append(f.results, res)
		return res
	}
	if err := standby.ReplayJournal(tail); err != nil {
		res.Err = fmt.Errorf("chaos: standby replay: %w", err)
		f.results = append(f.results, res)
		return res
	}
	res.RestoreWall = time.Since(start)
	res.DigestMatch = standby.StateDigest() == f.cfg.Cluster.StateDigest()
	res.ConsistencyOK = len(f.cfg.Audit(standby)) == 0
	res.RecoverableLost = recoverableLost(f.cfg.Cluster, standby)
	f.results = append(f.results, res)
	return res
}

// CrashZombie is the fenced-writer drill. It runs a standard Crash
// (standby restored and verified), then models the promotion's fencing
// side: the new writer bumps the shared journal's epoch, the old primary —
// whose process lingers, unaware it lost the election — attempts late
// mutations, and every one must bounce off the epoch fence without
// touching durable state. Finally the primary re-adopts the journal epoch,
// modeling the verified standby handing the writer role back (the harness
// keeps simulating on the primary, as Crash does).
func (f *Failover) CrashZombie() FailoverResult {
	res := f.Crash()
	res.Zombie = true
	c := f.cfg.Cluster
	j := c.Journal()
	j.BumpEpoch() // the promoted standby fences the old writer

	before := c.StateDigest()
	mb := c.Metrics().FencedWritesApplied
	probe := fmt.Sprintf("/zombie/probe-%d", j.NextSeq())
	if _, err := c.CreateFile(probe, 1, 1, -1); errors.Is(err, hdfs.ErrFenced) {
		res.FencedRejected++
	}
	if err := c.DeleteFile(probe); errors.Is(err, hdfs.ErrFenced) {
		res.FencedRejected++
	}
	res.FencedApplied = c.Metrics().FencedWritesApplied - mb
	if c.StateDigest() != before {
		res.FencedApplied++
	}

	c.AdoptEpoch() // primary re-wins the election and resumes as writer
	f.results[len(f.results)-1] = res
	return res
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
		for _, ids := range [][]hdfs.BlockID{f.Blocks, f.Parity} {
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
