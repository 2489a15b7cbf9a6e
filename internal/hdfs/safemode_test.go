package hdfs

import (
	"errors"
	"testing"
	"time"

	"erms/internal/auditlog"
	"erms/internal/sim"
	"erms/internal/topology"
)

// newSafeModeCluster builds a heartbeat cluster with the safe-mode guard
// on: nodes go stale at 30s and dead at 2m, the guard trips when fewer
// than 3/4 of the datanodes are live, and exit needs a 1-minute dwell.
func newSafeModeCluster(t *testing.T) (*sim.Engine, *Cluster) {
	t.Helper()
	e := sim.NewEngine()
	topo := topology.New(topology.Config{})
	c := New(e, Config{
		Topology: topo,
		Heartbeat: HeartbeatConfig{
			Enabled:      true,
			Interval:     3 * time.Second,
			StaleTimeout: 30 * time.Second,
			DeadTimeout:  2 * time.Minute,
		},
		SafeMode: SafeModeConfig{
			Enabled:       true,
			NodeThreshold: 0.75,
			Dwell:         time.Minute,
			CheckInterval: 3 * time.Second,
		},
	})
	return e, c
}

// TestSafeModeThresholdEntryAndDwellExit pins the guard's state machine:
// losing a third of the cluster trips it, recovery alone does not clear it
// until the thresholds have held for the full dwell.
func TestSafeModeThresholdEntryAndDwellExit(t *testing.T) {
	e, c := newSafeModeCluster(t)
	for _, p := range []string{"/sm/a", "/sm/b"} {
		if _, err := c.CreateFile(p, 192*mb, 3, -1); err != nil {
			t.Fatal(err)
		}
	}
	// Rack 0 dies whole: 6 of 18 nodes, LiveNodeFraction 0.667 < 0.75.
	victims := c.Topology().NodesInRack(0)
	e.At(1*time.Second, func() {
		for _, n := range victims {
			c.Kill(DatanodeID(n))
		}
	})

	// Crashed nodes go silent; staleness alone must trip the guard well
	// before the dead declarations (the point of the NodeThreshold).
	e.RunUntil(45 * time.Second)
	if !c.InSafeMode() {
		t.Fatal("guard not tripped by mass staleness")
	}
	if got := c.Metrics().SafeModeEntries; got != 1 {
		t.Fatalf("SafeModeEntries = %d, want 1", got)
	}

	// Past DeadTimeout the nodes are Down; still unhealthy, still in.
	e.RunUntil(4 * time.Minute)
	if !c.InSafeMode() {
		t.Fatal("guard dropped while a third of the cluster is dead")
	}
	if frac := c.LiveNodeFraction(); frac >= 0.75 {
		t.Fatalf("LiveNodeFraction = %v with rack 0 dead", frac)
	}

	// Rack 0 comes back at 5m. The thresholds are met immediately, but the
	// guard must hold for the dwell before exiting.
	e.At(5*time.Minute, func() {
		for _, n := range victims {
			c.Restart(DatanodeID(n))
		}
	})
	e.RunUntil(5*time.Minute + 50*time.Second)
	if !c.InSafeMode() {
		t.Fatal("guard exited before the dwell elapsed")
	}
	e.RunUntil(6*time.Minute + 30*time.Second)
	if c.InSafeMode() {
		t.Fatal("guard still on after thresholds held for the dwell")
	}
	if m := c.Metrics(); m.SafeModeEntries != 1 || m.SafeModeExits != 1 {
		t.Fatalf("entries/exits = %d/%d, want 1/1", m.SafeModeEntries, m.SafeModeExits)
	}
	checkConsistency(t, c)
}

// TestSafeModeManualEntryGatesMutations: dfsadmin-style manual safe mode
// rejects every namespace mutation with ErrSafeMode, ignores the automatic
// monitor (the cluster is perfectly healthy), and only LeaveSafeMode
// clears it.
func TestSafeModeManualEntryGatesMutations(t *testing.T) {
	e, c := newSafeModeCluster(t)
	if _, err := c.CreateFile("/pre", 64*mb, 3, -1); err != nil {
		t.Fatal(err)
	}
	c.EnterSafeMode()

	if _, err := c.CreateFile("/during", 64*mb, 3, -1); !errors.Is(err, ErrSafeMode) {
		t.Fatalf("CreateFile in safe mode: err = %v, want ErrSafeMode", err)
	}
	if err := c.DeleteFile("/pre"); !errors.Is(err, ErrSafeMode) {
		t.Fatalf("DeleteFile in safe mode: err = %v, want ErrSafeMode", err)
	}
	if err := c.Rename("/pre", "/post"); !errors.Is(err, ErrSafeMode) {
		t.Fatalf("Rename in safe mode: err = %v, want ErrSafeMode", err)
	}
	if got := c.Metrics().SafeModeRejections; got != 3 {
		t.Fatalf("SafeModeRejections = %d, want 3", got)
	}

	// A healthy cluster and many monitor ticks later, a manual entry still
	// holds — the automatic exit path must not touch it.
	e.RunUntil(10 * time.Minute)
	if !c.InSafeMode() {
		t.Fatal("monitor auto-exited a manual safe-mode entry")
	}

	c.LeaveSafeMode()
	if c.InSafeMode() {
		t.Fatal("LeaveSafeMode did not exit")
	}
	if _, err := c.CreateFile("/during", 64*mb, 3, -1); err != nil {
		t.Fatalf("CreateFile after leave: %v", err)
	}
	checkConsistency(t, c)
}

// TestFencingOutranksSafeMode: once the shared journal's epoch moves past
// this namenode's (a standby won the writer election), every mutation is
// ErrFenced — even in safe mode, which is checked second — until the node
// re-adopts the journal epoch.
func TestFencingOutranksSafeMode(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, Config{
		Topology: topology.New(topology.Config{}),
		SafeMode: SafeModeConfig{Enabled: true},
	})
	c.SetJournal(auditlog.NewJournal())
	if _, err := c.CreateFile("/a", 64*mb, 3, -1); err != nil {
		t.Fatal(err)
	}
	if c.Fenced() {
		t.Fatal("writer fenced against its own journal")
	}

	// Standby promotion elsewhere bumps the shared journal's epoch.
	c.Journal().BumpEpoch()
	if !c.Fenced() {
		t.Fatal("epoch bump did not fence the stale writer")
	}
	if _, err := c.CreateFile("/b", 64*mb, 3, -1); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced CreateFile: err = %v, want ErrFenced", err)
	}
	c.EnterSafeMode()
	if err := c.DeleteFile("/a"); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced+safemode DeleteFile: err = %v, want ErrFenced (fencing first)", err)
	}
	if got := c.Metrics().FencedWritesRejected; got != 2 {
		t.Fatalf("FencedWritesRejected = %d, want 2", got)
	}

	// Winning the election back: adopt the journal epoch, leave safe mode.
	c.AdoptEpoch()
	c.LeaveSafeMode()
	if c.Fenced() {
		t.Fatal("still fenced after AdoptEpoch")
	}
	if _, err := c.CreateFile("/b", 64*mb, 3, -1); err != nil {
		t.Fatalf("CreateFile after re-election: %v", err)
	}
	if got := c.Metrics().FencedWritesApplied; got != 0 {
		t.Fatalf("FencedWritesApplied = %d — a fenced mutation reached the journal", got)
	}
}

// TestFlappingNodeDoesNotDoubleReleaseReplicas drives one node through a
// stale → heartbeat → stale → dead cycle. The rejoin must re-credit
// nothing (the replicas were never released) and the eventual death must
// release each replica exactly once — a double release would corrupt the
// under-replication bookkeeping that repair scheduling keys off.
func TestFlappingNodeDoesNotDoubleReleaseReplicas(t *testing.T) {
	e, c := newSafeModeCluster(t)
	f, err := c.CreateFile("/flap", 192*mb, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	victim := c.Replicas(f.Blocks[0])[0]
	heldBlocks := []BlockID{}
	for _, bid := range f.Blocks {
		if c.Datanode(victim).HasBlock(bid) {
			heldBlocks = append(heldBlocks, bid)
		}
	}
	if len(heldBlocks) == 0 {
		t.Fatal("victim holds nothing")
	}

	e.At(1*time.Second, func() { c.SetFault(victim, Fault{Muted: true}) })
	e.RunUntil(40 * time.Second)
	if !c.Datanode(victim).Stale {
		t.Fatal("victim not stale after first flap")
	}
	if got := len(c.Replicas(f.Blocks[0])); got != 3 {
		t.Fatalf("staleness released replicas: %d", got)
	}

	// Heartbeats resume: the node rejoins, stale clears, nothing moves.
	e.At(41*time.Second, func() { c.SetFault(victim, Fault{}) })
	e.RunUntil(50 * time.Second)
	if c.Datanode(victim).Stale {
		t.Fatal("victim still stale after heartbeats resumed")
	}
	if got := len(c.Replicas(f.Blocks[0])); got != 3 {
		t.Fatalf("rejoin changed replica count: %d", got)
	}
	if got := len(c.UnderReplicated()); got != 0 {
		t.Fatalf("flap left %d blocks marked under-replicated", got)
	}

	// Second flap runs to death. lastHeartbeat was refreshed by the rejoin,
	// so the dead clock restarts from the second stall.
	e.At(55*time.Second, func() { c.SetFault(victim, Fault{Muted: true}) })
	e.RunUntil(2 * time.Minute)
	if got := c.Datanode(victim).State; got != StateActive {
		t.Fatalf("dead clock did not restart on rejoin: state %s at 2m", got)
	}
	e.RunUntil(4 * time.Minute)
	if got := c.Datanode(victim).State; got != StateDown {
		t.Fatalf("victim not dead: %s", got)
	}
	if got := c.Metrics().StaleTransitions; got != 2 {
		t.Fatalf("StaleTransitions = %d, want 2", got)
	}
	for _, bid := range heldBlocks {
		reps := c.Replicas(bid)
		if len(reps) != 2 {
			t.Fatalf("block %d has %d replicas after single death, want 2", bid, len(reps))
		}
		for _, r := range reps {
			if r == victim {
				t.Fatalf("block %d still credited to the dead node", bid)
			}
		}
	}
	if got := len(c.UnderReplicated()); got != len(heldBlocks) {
		t.Fatalf("under-replicated set = %d blocks, want %d", got, len(heldBlocks))
	}
	// Nothing further may release again: the sets must be stable.
	e.RunUntil(6 * time.Minute)
	if got := len(c.UnderReplicated()); got != len(heldBlocks) {
		t.Fatalf("under-replicated set drifted to %d after death settled", got)
	}
	checkConsistency(t, c)
}
