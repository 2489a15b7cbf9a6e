package core

import (
	"testing"
	"time"

	"erms/internal/hdfs"
	"erms/internal/sim"
	"erms/internal/topology"
)

// TestDeadNodeInSafeModeQueuesRepairs: a datanode death while the
// namenode is in safe mode must only queue the damage — counted
// repairs_deferred, classified in the tier queues — and submit nothing;
// leaving safe mode releases the backlog in one prioritized pass.
func TestDeadNodeInSafeModeQueuesRepairs(t *testing.T) {
	e := sim.NewEngine()
	h := hdfs.New(e, hdfs.Config{
		Topology: topology.New(topology.Config{}),
		SafeMode: hdfs.SafeModeConfig{Enabled: true},
	})
	m := New(h, Config{JudgePeriod: 24 * time.Hour})
	for _, p := range []string{"/q/a", "/q/b"} {
		if _, err := h.CreateFile(p, 192*mb, 3, -1); err != nil {
			t.Fatal(err)
		}
	}

	h.EnterSafeMode()
	h.Kill(2) // heartbeats off: declared dead synchronously, OnDatanodeDown fires now
	damaged := len(h.UnderReplicated())
	if damaged == 0 {
		t.Fatal("node death damaged nothing")
	}

	if got := m.Stats().RepairsDeferred; got != damaged {
		t.Fatalf("RepairsDeferred = %d, want %d", got, damaged)
	}
	if got := m.ActiveRepairJobs(); got != 0 {
		t.Fatalf("%d repair jobs submitted in safe mode", got)
	}
	depths := m.RepairQueueDepths()
	queued := 0
	for _, d := range depths {
		queued += d
	}
	if queued != damaged {
		t.Fatalf("tier queues hold %d blocks, want %d (depths %v)", queued, damaged, depths)
	}

	// Time passing changes nothing while the guard holds: the negotiator
	// runs, the judge ticks — no repair moves.
	e.RunUntil(5 * time.Minute)
	if got := m.Stats().Repairs; got != 0 {
		t.Fatalf("%d repairs ran during safe mode", got)
	}
	if got := len(h.UnderReplicated()); got != damaged {
		t.Fatalf("damage set drifted in safe mode: %d, want %d", got, damaged)
	}

	// Exit releases the backlog immediately (the OnSafeMode callback
	// re-arms the sweep; no rescan delay involved).
	h.LeaveSafeMode()
	if got := m.ActiveRepairJobs(); got != damaged {
		t.Fatalf("safe-mode exit admitted %d jobs, want %d", got, damaged)
	}
	e.RunUntil(30 * time.Minute)
	if got := len(h.UnderReplicated()); got != 0 {
		t.Fatalf("%d blocks still damaged after the backlog drained", got)
	}
	if got := m.Stats().Repairs; got != damaged {
		t.Fatalf("Repairs = %d, want %d", got, damaged)
	}
	if got := m.CapViolations(); got != 0 {
		t.Fatalf("CapViolations = %d", got)
	}
}

// TestDecreaseDuringRepairTrimsOnLanding lowers a file's target while a
// repair copy toward its block is in flight. The decrease finds nothing
// above the new target; the copy then lands one replica over it, and the
// landing trims the block back to the target.
func TestDecreaseDuringRepairTrimsOnLanding(t *testing.T) {
	e := sim.NewEngine()
	h := hdfs.New(e, hdfs.Config{Topology: topology.New(topology.Config{})})
	m := New(h, Config{JudgePeriod: 24 * time.Hour})
	f, err := h.CreateFile("/d", 64*mb, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	bid := f.Blocks[0]
	h.Kill(h.Replicas(bid)[0]) // heartbeats off: dead now, the repair sweep runs
	for m.ActiveRepairStreams() == 0 {
		if !e.Step() {
			t.Fatal("the repair copy never started")
		}
	}
	h.SetReplication("/d", 2, hdfs.WholeAtOnce, nil)
	removed := h.Metrics().ReplicasRemoved
	e.RunUntil(e.Now() + 30*time.Minute)
	if got := len(h.Replicas(bid)); got != 2 {
		t.Fatalf("block ends at %d live replicas, target 2", got)
	}
	if got := h.Metrics().ReplicasRemoved - removed; got != 1 {
		t.Fatalf("%d replicas removed after the decrease, want the landed copy's 1", got)
	}
	if got := m.Stats().Repairs; got != 1 {
		t.Fatalf("Repairs = %d, want 1", got)
	}
}
