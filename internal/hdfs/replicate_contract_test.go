package hdfs

import (
	"sort"
	"strings"
	"testing"
	"time"

	"erms/internal/sim"
	"erms/internal/topology"
)

// TestUnderReplicatedOrderContract pins the documented ordering contract:
// UnderReplicated returns blocks ascending by BlockID, identically on
// every call and identically across same-seed runs. The repair pipeline's
// (tier, BlockID) admission order — and with it every downstream transfer
// schedule — is built on this.
func TestUnderReplicatedOrderContract(t *testing.T) {
	run := func() []BlockID {
		e := sim.NewEngine()
		c := New(e, Config{Topology: topology.New(topology.Config{})})
		for i, p := range []string{"/u/a", "/u/b", "/u/c", "/u/d", "/u/e"} {
			if _, err := c.CreateFile(p, 192*mb, 2+i%3, -1); err != nil {
				t.Fatal(err)
			}
		}
		// Two node deaths damage an interleaved, non-contiguous set of
		// blocks — the case where map-iteration order would leak if the
		// contract were ever broken.
		c.Kill(3)
		c.Kill(11)
		e.RunUntil(time.Second)
		return c.UnderReplicated()
	}

	a := run()
	if len(a) == 0 {
		t.Fatal("no under-replicated blocks after two node deaths")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatalf("UnderReplicated not ascending by BlockID: %v", a)
	}
	b := run()
	if len(a) != len(b) {
		t.Fatalf("same-seed runs disagree on damage: %d vs %d blocks", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverge at index %d: %v vs %v", i, a, b)
		}
	}
}

// TestChooseSourceTieBreakOrder pins the source-selection key, most
// significant first: transfer load (sessions + outbound + INBOUND — a node
// mid-way through receiving a copy is a busy disk, not an idle source),
// then rack proximity to the target, then smallest ID.
func TestChooseSourceTieBreakOrder(t *testing.T) {
	e := sim.NewEngine()
	topo := topology.New(topology.Config{})
	c := New(e, Config{Topology: topo})
	f, err := c.CreateFile("/src", 64*mb, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	bid := f.Blocks[0]
	reps := c.Replicas(bid)
	// Default placement: slots 1 and 2 share a rack, slot 0 sits elsewhere.
	r0, r1, r2 := reps[0], reps[1], reps[2]
	if !topo.SameRack(topology.NodeID(r1), topology.NodeID(r2)) ||
		topo.SameRack(topology.NodeID(r0), topology.NodeID(r1)) {
		t.Fatalf("placement precondition broken: replicas %v", reps)
	}
	low, high := r1, r2
	if high < low {
		low, high = high, low
	}
	// Target: a non-holder in the same rack as replicas 1 and 2.
	var target DatanodeID = -1
	for _, d := range c.Datanodes() {
		if !d.HasBlock(bid) && topo.SameRack(topology.NodeID(d.ID), topology.NodeID(r1)) {
			target = d.ID
			break
		}
	}
	if target < 0 {
		t.Fatal("no same-rack non-holder available as target")
	}

	// All idle: rack proximity wins, then smallest ID among the two
	// same-rack holders.
	if got, ok := c.chooseSource(bid, target, false); !ok || got != low {
		t.Fatalf("idle cluster: source = %v, want same-rack low ID %v", got, low)
	}

	// The preferred source starts receiving a transfer: xferIn alone must
	// disqualify it in favor of the equally-near idle holder.
	c.datanodes[low].xferIn++
	if got, ok := c.chooseSource(bid, target, false); !ok || got != high {
		t.Fatalf("busy-in low: source = %v, want other same-rack holder %v", got, high)
	}

	// Both same-rack holders busy: load outranks rack proximity, so the
	// idle remote replica wins.
	c.datanodes[high].xferIn++
	if got, ok := c.chooseSource(bid, target, false); !ok || got != r0 {
		t.Fatalf("same-rack busy: source = %v, want idle remote %v", got, r0)
	}

	// Load all equal again: rack proximity reasserts itself over ID.
	c.datanodes[r0].xferOut++
	if got, ok := c.chooseSource(bid, target, false); !ok || got != low {
		t.Fatalf("uniform load: source = %v, want same-rack low ID %v", got, low)
	}

	c.datanodes[low].xferIn--
	c.datanodes[high].xferIn--
	c.datanodes[r0].xferOut--
}

// TestDeficitCountsCopiesInFlight: a raise's copies count toward each
// block's target from the moment they are scheduled, so a second raise to
// the same target (a retry) starts none, and a block still short of its
// live target has no deficit left.
func TestDeficitCountsCopiesInFlight(t *testing.T) {
	e, c := newCluster(t)
	f, _ := c.CreateFile("/a", 128*mb, 3, 0)
	c.SetReplication("/a", 5, WholeAtOnce, nil)
	for _, bid := range f.Blocks {
		if got := c.Deficit(bid); got != 0 {
			t.Fatalf("block %d deficit %d with its two copies in flight, want 0", bid, got)
		}
	}
	if got := len(c.UnderReplicated()); got != len(f.Blocks) {
		t.Fatalf("%d blocks under-replicated while copying, want %d", got, len(f.Blocks))
	}
	c.SetReplication("/a", 5, WholeAtOnce, nil)
	e.Run()
	if got, want := c.Metrics().ReplicasAdded, 2*len(f.Blocks); got != want {
		t.Fatalf("ReplicasAdded = %d, want %d", got, want)
	}
	for _, bid := range f.Blocks {
		if got := len(c.Replicas(bid)); got != 5 {
			t.Fatalf("block %d holds %d replicas, want 5", bid, got)
		}
	}
	checkConsistency(t, c)
}

// TestDeathSettlesCopiesTowardTheNode: the copies toward a datanode stop
// counting when it is declared dead, before OnDatanodeDown fires, so the
// repair sweep that callback runs sees their blocks short.
func TestDeathSettlesCopiesTowardTheNode(t *testing.T) {
	e, c := newCluster(t)
	f, _ := c.CreateFile("/a", 64*mb, 3, 0)
	bid := f.Blocks[0]
	c.SetReplication("/a", 4, WholeAtOnce, nil)
	var target DatanodeID = -1
	for _, d := range c.Datanodes() {
		if d.PendingAdds() == 1 {
			target = d.ID
		}
	}
	if target < 0 {
		t.Fatal("no copy in flight")
	}
	seen := -1
	c.OnDatanodeDown(func(DatanodeID) { seen = c.Deficit(bid) })
	c.Kill(target)
	if seen != 1 {
		t.Fatalf("deficit at OnDatanodeDown = %d, want 1", seen)
	}
	if got := c.Datanode(target).PendingAdds(); got != 0 {
		t.Fatalf("dead node still counts %d inbound copies", got)
	}
	checkConsistency(t, c)
	e.Run()
	checkConsistency(t, c)
}

// TestShrinkTrimsEveryBlock: a decrease trims every block above the new
// factor, not only when the first block is above it. Here the first block
// is already down to the new factor, so the file reads as replicated 2.
func TestShrinkTrimsEveryBlock(t *testing.T) {
	e, c := newCluster(t)
	f, _ := c.CreateFile("/a", 128*mb, 3, 0)
	if err := c.RemoveReplica(f.Blocks[0], c.Replicas(f.Blocks[0])[0]); err != nil {
		t.Fatal(err)
	}
	c.SetReplication("/a", 2, WholeAtOnce, nil)
	e.Run()
	for _, bid := range f.Blocks {
		if got := len(c.Replicas(bid)); got != 2 {
			t.Fatalf("block %d holds %d replicas after the decrease to 2", bid, got)
		}
	}
	checkConsistency(t, c)
}

// TestDeadTargetGetsNoCopy: a copy toward a datanode declared dead ends
// there, and its node's next incarnation never receives it. Heartbeats
// are off, so Kill declares the death at once; Restart follows in the
// same instant. Killed at 1.5 s, mid-transfer, the copy's flow leaves the
// fabric, both ends' transfer counts drop and done fails "died during
// copy"; killed at 0.5 s, before the command reaches the node, done fails
// "died before copy" and no transfer starts.
func TestDeadTargetGetsNoCopy(t *testing.T) {
	for _, c := range []struct {
		kill  time.Duration
		flows int
		want  string
	}{{1500 * time.Millisecond, 1, "died during copy"}, {500 * time.Millisecond, 0, "died before copy"}} {
		e, cl := newCluster(t)
		f, _ := cl.CreateFile("/a", 64*mb, 2, 0)
		bid := f.Blocks[0]
		var target DatanodeID = -1
		for _, d := range cl.Datanodes() {
			if !d.HasBlock(bid) {
				target = d.ID
				break
			}
		}
		var got error
		calls := 0
		cl.AddReplica(bid, target, func(err error) { got, calls = err, calls+1 })
		e.RunUntil(c.kill)
		if n := cl.Fabric().ActiveFlows(); n != c.flows {
			t.Fatalf("kill at %v: %d flows in the fabric, want %d", c.kill, n, c.flows)
		}
		cl.Kill(target)
		cl.Restart(target)
		if n := cl.Fabric().ActiveFlows(); n != 0 {
			t.Fatalf("kill at %v: %d flows in the fabric after the target's death", c.kill, n)
		}
		e.Run()
		if calls != 1 || got == nil || !strings.Contains(got.Error(), c.want) {
			t.Fatalf("kill at %v: done called %d times with %v, want once with %q", c.kill, calls, got, c.want)
		}
		if cl.Datanode(target).HasBlock(bid) {
			t.Fatalf("kill at %v: the copy landed on the restarted node", c.kill)
		}
		for _, d := range cl.Datanodes() {
			if d.xferIn != 0 || d.xferOut != 0 || len(d.activeFlows) != 0 {
				t.Fatalf("kill at %v: %s holds %d inbound and %d outbound transfers, %d flows",
					c.kill, d.Name, d.xferIn, d.xferOut, len(d.activeFlows))
			}
		}
		checkConsistency(t, cl)
	}
}
