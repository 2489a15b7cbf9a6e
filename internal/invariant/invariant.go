// Package invariant holds global-state oracles for the simulator: facts
// that must hold at every instant of every run, regardless of workload or
// chaos schedule. The scale work (1,000 datanodes / 1M files) replaced
// namenode-side linear scans with incremental indexes; these oracles are
// the safety net that catches index drift, leaked bookkeeping, or
// physically impossible states the unit tests would never construct.
//
// The checks are grouped into independent oracles so a failure names the
// subsystem that broke:
//
//   - storage: the cluster's own index cross-check (ConsistencyErrors),
//     the placement index against a reference candidate scan, and
//     replica-count bounds per block and file;
//   - durability: no block is unrecoverable (skippable for runs whose
//     chaos schedule legitimately destroys data);
//   - energy: the standby pool's activity books balance — pooled uptime
//     never exceeds wall clock and saved node-hours are non-negative;
//   - condor: scheduler slot accounting never leaks — machine slots,
//     running counts, job-state partition, and outcome stats agree;
//   - metrics: the read and storage counters tie out against HDFS state;
//   - safemode: the guard's entry/exit books balance and a probe mutation
//     bounces while it is up — safe mode never loses acknowledged data;
//   - epoch: journal-epoch fencing holds — entry epochs are monotone, the
//     writer never runs ahead of the journal, and no fenced write was
//     applied (exactly one unfenced writer per epoch);
//   - repair: the repair pipeline's concurrency never exceeds its
//     cluster-wide or per-node caps;
//   - restore (opt-in): a shadow cluster rebuilt from a checkpoint — and,
//     under a Watcher with a journal attached, from a baseline checkpoint
//     plus journal-tail replay — matches the live namenode exactly.
//
// Check runs every applicable oracle once; Watch re-runs them on a sim
// ticker for continuous checking during randomized runs.
package invariant

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"erms/internal/auditlog"
	"erms/internal/condor"
	"erms/internal/core"
	"erms/internal/hdfs"
	"erms/internal/sim"
)

// Target names the system under check. Cluster is required; Manager is
// optional (vanilla runs have none) and brings the energy and condor
// oracles with it.
type Target struct {
	Cluster *hdfs.Cluster
	Manager *core.Manager
	// AllowDataLoss skips the durability oracle for chaos schedules that
	// intentionally destroy every copy of a block.
	AllowDataLoss bool
	// MaxReplication, when positive, bounds every plain file's replication
	// target (the judge's τ-derived clamp). Zero skips the bound.
	MaxReplication int
	// CheckRestore enables the restore-equivalence oracle: at every check
	// the cluster is checkpointed, restored into a shadow cluster, and the
	// shadow must match the live state digest, pass consistency, and
	// re-encode to the identical bytes. When the cluster also carries a
	// journal, the Watcher additionally replays the tail since its baseline
	// checkpoint each tick and compares digests — the failover story
	// verified continuously. Requires NewShadow.
	CheckRestore bool
	// NewShadow builds an empty cluster on the given engine with the same
	// durable configuration as Cluster (the checkpoint's config digest
	// enforces it). Required when CheckRestore is set.
	NewShadow func(*sim.Engine) *hdfs.Cluster
}

// Check runs every applicable oracle once and returns the violations,
// sorted. Empty means the state is sound.
func Check(t Target) []string {
	var errs []string
	errs = append(errs, checkStorage(t)...)
	if !t.AllowDataLoss {
		errs = append(errs, checkDurability(t)...)
	}
	errs = append(errs, checkMetrics(t)...)
	errs = append(errs, checkSafeMode(t)...)
	errs = append(errs, checkEpoch(t)...)
	if t.CheckRestore {
		errs = append(errs, checkRestore(t)...)
	}
	if t.Manager != nil {
		errs = append(errs, checkEnergy(t)...)
		errs = append(errs, checkCondor(t)...)
		errs = append(errs, checkRepairCaps(t)...)
	}
	sort.Strings(errs)
	return errs
}

// checkSafeMode asserts the safe-mode guard's books balance and that it
// actually guards: entries and exits alternate (their difference is the
// current state), and while the guard is up a probe mutation must bounce
// with ErrSafeMode leaving the namespace untouched — acknowledged data is
// never lost to a mutation that slipped through.
func checkSafeMode(t Target) []string {
	var errs []string
	c := t.Cluster
	m := c.Metrics()
	if m.SafeModeExits > m.SafeModeEntries {
		errs = append(errs, fmt.Sprintf("safemode: %d exits exceed %d entries", m.SafeModeExits, m.SafeModeEntries))
	}
	open := m.SafeModeEntries - m.SafeModeExits
	if open != 0 && open != 1 {
		errs = append(errs, fmt.Sprintf("safemode: %d entries - %d exits = %d, want 0 or 1",
			m.SafeModeEntries, m.SafeModeExits, open))
	}
	if inSM := c.InSafeMode(); inSM != (open == 1) {
		errs = append(errs, fmt.Sprintf("safemode: InSafeMode()=%v but entry/exit counters say %v", inSM, open == 1))
	}
	if c.InSafeMode() {
		before := len(c.FilePaths())
		_, err := c.CreateFile("/invariant/safemode-probe", 1, 1, -1)
		if !errors.Is(err, hdfs.ErrSafeMode) {
			errs = append(errs, fmt.Sprintf("safemode: probe create in safe mode returned %v, want ErrSafeMode", err))
		}
		if after := len(c.FilePaths()); after != before {
			errs = append(errs, fmt.Sprintf("safemode: probe create mutated the namespace (%d -> %d files)", before, after))
		}
	}
	return errs
}

// checkEpoch asserts the journal-epoch fence: the writer's epoch never
// runs ahead of the journal's, journaled entries carry non-decreasing
// epochs bounded by the journal's current one, and no fenced write was
// ever applied ("exactly one unfenced writer per epoch").
func checkEpoch(t Target) []string {
	var errs []string
	c := t.Cluster
	if n := c.Metrics().FencedWritesApplied; n != 0 {
		errs = append(errs, fmt.Sprintf("epoch: %d fenced writes were applied to durable state", n))
	}
	j := c.Journal()
	if j == nil {
		return errs
	}
	if c.Epoch() > j.Epoch() {
		errs = append(errs, fmt.Sprintf("epoch: cluster epoch %d ahead of journal epoch %d", c.Epoch(), j.Epoch()))
	}
	prev := uint64(0)
	j.Each(0, func(e *auditlog.Entry) bool {
		if e.Epoch < prev {
			errs = append(errs, fmt.Sprintf("epoch: journal seq %d epoch %d decreased from %d", e.Seq, e.Epoch, prev))
			return false
		}
		prev = e.Epoch
		return true
	})
	if prev > j.Epoch() {
		errs = append(errs, fmt.Sprintf("epoch: journaled epoch %d exceeds journal epoch %d", prev, j.Epoch()))
	}
	return errs
}

// checkRepairCaps asserts the repair pipeline's throttles actually bound
// it: active repair jobs within the cluster-wide cap, per-node inbound
// copies within the per-node cap, and the manager's own cap tripwire
// untripped.
func checkRepairCaps(t Target) []string {
	var errs []string
	m := t.Manager
	caps := m.RepairCaps()
	if caps.MaxStreams > 0 && m.ActiveRepairJobs() > caps.MaxStreams {
		errs = append(errs, fmt.Sprintf("repair: %d active repair jobs exceed MaxStreams %d",
			m.ActiveRepairJobs(), caps.MaxStreams))
	}
	if lim := caps.MaxStreamsPerNode; lim > 0 {
		for id, n := range m.NodeRepairStreams() {
			if n > lim {
				errs = append(errs, fmt.Sprintf("repair: node %d has %d inbound repair copies, cap %d", id, n, lim))
			}
		}
	}
	if n := m.CapViolations(); n != 0 {
		errs = append(errs, fmt.Sprintf("repair: per-node cap tripwire fired %d times", n))
	}
	if s := m.ActiveRepairStreams(); s < 0 {
		errs = append(errs, fmt.Sprintf("repair: active stream count %d went negative", s))
	}
	return errs
}

// referenceCandidates is the pre-index placement scan, kept as the reference
// Cluster.ScanEligible is compared against: visit every datanode, keep the
// active ones that are trusted (not stale, not crashed), reachable, not
// holding b and with uncommitted room for it, and sort by (PlacementLoad,
// ID) so choice is deterministic and load-spreading.
func referenceCandidates(c *hdfs.Cluster, b *hdfs.Block) []hdfs.DatanodeID {
	holder := map[hdfs.DatanodeID]bool{}
	for _, r := range c.Replicas(b.ID) {
		holder[r] = true
	}
	var out []hdfs.DatanodeID
	for _, d := range c.Datanodes() {
		if d.State != hdfs.StateActive || holder[d.ID] {
			continue
		}
		// Stale, crashed, or partitioned nodes do not receive writes: the
		// namenode either distrusts them (stale) or cannot reach them.
		if d.Stale || d.Crashed() || c.NodeUnreachable(d.ID) {
			continue
		}
		if d.UncommittedFree() < b.Size {
			continue
		}
		out = append(out, d.ID)
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := c.Datanode(out[i]), c.Datanode(out[j])
		if di.PlacementLoad() != dj.PlacementLoad() {
			return di.PlacementLoad() < dj.PlacementLoad()
		}
		return out[i] < out[j]
	})
	return out
}

// consistency is the cluster's own index cross-check (ConsistencyErrors)
// plus the candidate-order check: the load index must reproduce the
// reference scan's (PlacementLoad, ID) order exactly. Probed with a
// zero-size block no node holds.
func consistency(c *hdfs.Cluster) []string {
	errs := c.ConsistencyErrors()
	probe := &hdfs.Block{ID: -1}
	var fast []hdfs.DatanodeID
	c.ScanEligible(probe, nil, func(id hdfs.DatanodeID) bool {
		fast = append(fast, id)
		return false
	})
	slow := referenceCandidates(c, probe)
	if len(fast) != len(slow) {
		return append(errs, fmt.Sprintf("ScanEligible found %d candidates, reference scan %d", len(fast), len(slow)))
	}
	for i := range fast {
		if fast[i] != slow[i] {
			return append(errs, fmt.Sprintf("candidate order diverges at %d: index says %d, reference %d", i, fast[i], slow[i]))
		}
	}
	return errs
}

// checkStorage runs the consistency check and adds the externally-stated
// replication bounds: every block's live replica count within [0, nodes],
// every plain file's target within [1, max].
func checkStorage(t Target) []string {
	c := t.Cluster
	errs := consistency(c)
	nodes := c.NumDatanodes()
	for _, path := range c.FilePaths() {
		f := c.File(path)
		if f == nil {
			continue
		}
		if !f.Encoded {
			if f.TargetRepl < 1 {
				errs = append(errs, fmt.Sprintf("file %q has target replication %d < 1", path, f.TargetRepl))
			}
			if t.MaxReplication > 0 && f.TargetRepl > t.MaxReplication {
				errs = append(errs, fmt.Sprintf("file %q target replication %d exceeds max %d",
					path, f.TargetRepl, t.MaxReplication))
			}
		}
		for _, bid := range append(append([]hdfs.BlockID{}, f.Blocks...), f.Parity...) {
			if n := len(c.Replicas(bid)); n > nodes {
				errs = append(errs, fmt.Sprintf("block %d has %d replicas on a %d-node cluster", bid, n, nodes))
			}
		}
	}
	return errs
}

// checkDurability asserts no block has lost every path to its bytes: each
// needs a clean replica or enough live stripe members to reconstruct.
func checkDurability(t Target) []string {
	var errs []string
	for _, bid := range t.Cluster.UnrecoverableBlocks() {
		errs = append(errs, fmt.Sprintf("block %d is unrecoverable: no clean replica or stripe path", bid))
	}
	return errs
}

// checkEnergy balances the standby pool's activity books.
func checkEnergy(t Target) []string {
	var errs []string
	now := t.Cluster.Clock().Now()
	rep := t.Manager.Energy()
	if rep.PoolActiveTime < 0 || rep.PoolActiveTime > rep.AllActiveTime {
		errs = append(errs, fmt.Sprintf("energy: pooled uptime %s outside [0, %s]",
			rep.PoolActiveTime, rep.AllActiveTime))
	}
	if want := time.Duration(rep.PoolNodes) * now; rep.AllActiveTime != want {
		errs = append(errs, fmt.Sprintf("energy: always-on baseline %s != %d nodes x %s",
			rep.AllActiveTime, rep.PoolNodes, now))
	}
	if rep.SavedNodeHours < 0 {
		errs = append(errs, fmt.Sprintf("energy: negative saved node-hours %.3f", rep.SavedNodeHours))
	}
	for _, d := range t.Cluster.Datanodes() {
		up := d.ActiveTime + d.OpenActiveInterval(now)
		if up < 0 || up > now {
			errs = append(errs, fmt.Sprintf("energy: %s active time %s outside [0, %s]", d.Name, up, now))
		}
	}
	return errs
}

// checkCondor asserts the scheduler never leaks a slot or loses a job:
// machine busy counts, the running gauge, the job-state partition, and the
// outcome stats must all describe the same world.
func checkCondor(t Target) []string {
	var errs []string
	s := t.Manager.Scheduler()
	busy := 0
	for _, m := range s.Machines() {
		free := m.Free()
		if free < 0 || free > m.Slots {
			errs = append(errs, fmt.Sprintf("condor: machine %s free slots %d outside [0, %d]",
				m.Name, free, m.Slots))
		}
		busy += m.Slots - free
	}
	if busy != s.Running() {
		errs = append(errs, fmt.Sprintf("condor: %d busy slots but %d jobs running", busy, s.Running()))
	}
	jobs := s.Jobs()
	byState := map[condor.State]int{}
	for _, j := range jobs {
		byState[j.State]++
	}
	if byState[condor.StateRunning] != s.Running() {
		errs = append(errs, fmt.Sprintf("condor: %d jobs in StateRunning but Running()=%d",
			byState[condor.StateRunning], s.Running()))
	}
	if byState[condor.StatePending] != s.Pending() {
		errs = append(errs, fmt.Sprintf("condor: %d jobs in StatePending but Pending()=%d",
			byState[condor.StatePending], s.Pending()))
	}
	st := s.Stats()
	if st.Submitted != len(jobs) {
		errs = append(errs, fmt.Sprintf("condor: %d submissions logged but %d jobs known", st.Submitted, len(jobs)))
	}
	terminal := byState[condor.StateCompleted] + byState[condor.StateFailed] +
		byState[condor.StateRolledBack] + byState[condor.StateAborted]
	if terminal+s.Pending()+s.Running() != len(jobs) {
		errs = append(errs, fmt.Sprintf("condor: job states do not partition: %d terminal + %d pending + %d running != %d jobs",
			terminal, s.Pending(), s.Running(), len(jobs)))
	}
	if st.Completed != byState[condor.StateCompleted] {
		errs = append(errs, fmt.Sprintf("condor: stats say %d completed, states say %d",
			st.Completed, byState[condor.StateCompleted]))
	}
	if st.Aborted != byState[condor.StateAborted] {
		errs = append(errs, fmt.Sprintf("condor: stats say %d aborted, states say %d",
			st.Aborted, byState[condor.StateAborted]))
	}
	// EventFail fires for every finally-failed job, including those whose
	// rollback then moved them to StateRolledBack.
	if st.Failed != byState[condor.StateFailed]+byState[condor.StateRolledBack] {
		errs = append(errs, fmt.Sprintf("condor: stats say %d failed, states say %d failed + %d rolled back",
			st.Failed, byState[condor.StateFailed], byState[condor.StateRolledBack]))
	}
	return errs
}

// checkRestore round-trips the live cluster through the checkpoint format:
// a shadow cluster restored from a fresh checkpoint must carry the same
// state digest, pass its own consistency sweep, and re-encode to the
// identical bytes. Any drift means the format silently loses or invents
// state — exactly the bug class a failover would surface at the worst time.
func checkRestore(t Target) []string {
	if t.NewShadow == nil {
		return []string{"restore: CheckRestore set but NewShadow is nil"}
	}
	var buf bytes.Buffer
	if err := t.Cluster.WriteCheckpoint(&buf); err != nil {
		return []string{fmt.Sprintf("restore: checkpoint failed: %v", err)}
	}
	shadow := t.NewShadow(sim.NewEngine())
	if err := shadow.RestoreCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		return []string{fmt.Sprintf("restore: shadow restore failed: %v", err)}
	}
	var errs []string
	if got, want := shadow.StateDigest(), t.Cluster.StateDigest(); got != want {
		errs = append(errs, fmt.Sprintf("restore: shadow digest %#x != live %#x", got, want))
	}
	for _, e := range consistency(shadow) {
		errs = append(errs, "restore: shadow inconsistent: "+e)
	}
	var again bytes.Buffer
	if err := shadow.WriteCheckpoint(&again); err != nil {
		errs = append(errs, fmt.Sprintf("restore: shadow re-encode failed: %v", err))
	} else if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		errs = append(errs, "restore: shadow re-encode is not byte-identical to the checkpoint it loaded")
	}
	return errs
}

// checkMetrics ties the cluster's counters to its actual state.
func checkMetrics(t Target) []string {
	var errs []string
	c := t.Cluster
	m := c.Metrics()
	if m.ReadsStarted != m.ReadsCompleted+m.ReadsFailed+c.ActiveReads() {
		errs = append(errs, fmt.Sprintf("metrics: %d reads started != %d completed + %d failed + %d active",
			m.ReadsStarted, m.ReadsCompleted, m.ReadsFailed, c.ActiveReads()))
	}
	if m.BlockReads != m.NodeLocalReads+m.RackLocalReads+m.RemoteReads {
		errs = append(errs, fmt.Sprintf("metrics: %d block reads != %d node-local + %d rack-local + %d remote",
			m.BlockReads, m.NodeLocalReads, m.RackLocalReads, m.RemoteReads))
	}
	var stored float64
	for _, path := range c.FilePaths() {
		f := c.File(path)
		for _, bid := range append(append([]hdfs.BlockID{}, f.Blocks...), f.Parity...) {
			if b := c.Block(bid); b != nil {
				stored += float64(len(c.Replicas(bid))) * b.Size
			}
		}
	}
	if diff := stored - c.TotalUsed(); diff > 1e-3 || diff < -1e-3 {
		errs = append(errs, fmt.Sprintf("metrics: stored bytes %.1f != sum over replicas %.1f",
			c.TotalUsed(), stored))
	}
	return errs
}

// Violation is one oracle failure observed by a Watcher, stamped with the
// virtual time it was seen.
type Violation struct {
	At  time.Duration
	Msg string
}

func (v Violation) String() string { return fmt.Sprintf("[%s] %s", v.At, v.Msg) }

// Watcher re-checks a target on a fixed virtual-time period for the life
// of a run, accumulating violations instead of stopping at the first.
type Watcher struct {
	target Target
	ticker *sim.Ticker
	seen   map[string]bool
	viols  []Violation
	checks int
	// Baseline checkpoint for the journal-replay oracle: taken once when
	// the watch starts, replayed forward every tick.
	baseCkpt []byte
	baseSeq  uint64
}

// Watch starts continuous checking of t on the engine every period
// (default 30s). Each distinct violation message is recorded once, at the
// first tick it appears. Call Stop before reading results, or let the run
// end (the ticker dies with the event queue).
//
// When t.CheckRestore is set and the cluster carries a journal, the
// watcher also takes a baseline checkpoint now and, at every tick,
// rebuilds a shadow from baseline + journal tail — asserting that a
// standby commissioned at any instant of the run would match the live
// namenode exactly.
func Watch(e *sim.Engine, period time.Duration, t Target) *Watcher {
	if period <= 0 {
		period = 30 * time.Second
	}
	w := &Watcher{target: t, seen: map[string]bool{}}
	if t.CheckRestore && t.NewShadow != nil && t.Cluster.Journal() != nil {
		var buf bytes.Buffer
		if err := t.Cluster.WriteCheckpoint(&buf); err == nil {
			w.baseCkpt = buf.Bytes()
			w.baseSeq = t.Cluster.Journal().NextSeq()
		}
	}
	w.ticker = sim.NewTicker(e, period, func(now time.Duration) {
		w.sweep(now)
	})
	return w
}

// sweep runs one full oracle pass, recording each distinct violation once.
func (w *Watcher) sweep(now time.Duration) {
	w.checks++
	msgs := Check(w.target)
	if w.baseCkpt != nil {
		msgs = append(msgs, w.checkReplay()...)
	}
	for _, msg := range msgs {
		if !w.seen[msg] {
			w.seen[msg] = true
			w.viols = append(w.viols, Violation{At: now, Msg: msg})
		}
	}
}

// checkReplay rebuilds a shadow from the watch's baseline checkpoint plus
// the journal tail written since, and compares it to the live cluster —
// the standby-commission path exercised at the current instant.
func (w *Watcher) checkReplay() []string {
	tail := w.target.Cluster.Journal().Tail(w.baseSeq)
	if tail == nil {
		return []string{fmt.Sprintf("replay: journal tail from seq %d unavailable (truncated past the watch baseline)", w.baseSeq)}
	}
	shadow := w.target.NewShadow(sim.NewEngine())
	if err := shadow.RestoreCheckpoint(bytes.NewReader(w.baseCkpt)); err != nil {
		return []string{fmt.Sprintf("replay: baseline restore failed: %v", err)}
	}
	if err := shadow.ReplayJournal(tail); err != nil {
		return []string{fmt.Sprintf("replay: journal replay failed after %d entries: %v", len(tail), err)}
	}
	var errs []string
	if got, want := shadow.StateDigest(), w.target.Cluster.StateDigest(); got != want {
		errs = append(errs, fmt.Sprintf("replay: shadow digest %#x != live %#x after %d-entry tail", got, want, len(tail)))
	}
	for _, e := range consistency(shadow) {
		errs = append(errs, "replay: shadow inconsistent: "+e)
	}
	return errs
}

// Stop halts the periodic checking and runs one final check so end-state
// violations are never missed.
func (w *Watcher) Stop() {
	w.ticker.Stop()
	w.sweep(w.target.Cluster.Clock().Now())
}

// Violations returns every distinct violation observed, in first-seen
// order.
func (w *Watcher) Violations() []Violation { return w.viols }

// Checks returns how many oracle sweeps have run.
func (w *Watcher) Checks() int { return w.checks }
