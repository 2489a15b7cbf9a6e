package hdfs

import (
	"testing"
	"time"

	"erms/internal/sim"
	"erms/internal/topology"
)

// These tests pin the shrink victim order the degraded storms depend on: a
// SetReplication decrease must shed corrupt and unreachable replicas before
// clean ones, and must not collapse a block's survivors into a single rack.
// The bug they guard against: a judge-cooled shrink during an outage keeping
// only unreadable copies, turning a routine decrease into data loss.

func replicaSet(c *Cluster, b BlockID) map[DatanodeID]bool {
	s := map[DatanodeID]bool{}
	for _, r := range c.Replicas(b) {
		s[r] = true
	}
	return s
}

func TestShrinkShedsCorruptReplicaFirst(t *testing.T) {
	_, c := newCluster(t)
	f, err := c.CreateFile("/x", 64*mb, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := f.Blocks[0]
	victim := c.Replicas(b)[0]
	if err := c.CorruptReplica(b, victim); err != nil {
		t.Fatal(err)
	}
	c.SetReplication("/x", 2, WholeAtOnce, nil)
	left := replicaSet(c, b)
	if len(left) != 2 {
		t.Fatalf("replicas = %d, want 2", len(left))
	}
	if left[victim] {
		t.Fatalf("shrink kept the corrupt replica on node %d over a clean one", victim)
	}
}

func TestShrinkShedsCrashedNodeReplicaFirst(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, Config{
		Topology:  topology.New(topology.Config{}),
		Heartbeat: HeartbeatConfig{Enabled: true, DeadTimeout: 2 * time.Minute},
	})
	f, err := c.CreateFile("/x", 64*mb, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := f.Blocks[0]
	victim := c.Replicas(b)[0]
	// Crash the node but stay inside DeadTimeout: its replica is still in
	// the block map, just unreadable — exactly what the shrink should shed.
	c.Kill(victim)
	c.SetReplication("/x", 2, WholeAtOnce, nil)
	left := replicaSet(c, b)
	if len(left) != 2 {
		t.Fatalf("replicas = %d, want 2", len(left))
	}
	if left[victim] {
		t.Fatalf("shrink kept the replica on crashed node %d over a live one", victim)
	}
}

func TestShrinkPreservesRackDiversity(t *testing.T) {
	_, c := newCluster(t)
	f, err := c.CreateFile("/x", 64*mb, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := f.Blocks[0]
	c.SetReplication("/x", 6, WholeAtOnce, nil)
	c.Clock().(*sim.Engine).Run()
	if got := len(c.Replicas(b)); got != 6 {
		t.Fatalf("grow: replicas = %d, want 6", got)
	}
	c.SetReplication("/x", 2, WholeAtOnce, nil)
	racks := map[int]bool{}
	for _, r := range c.Replicas(b) {
		racks[c.topo.Rack(topology.NodeID(r))] = true
	}
	if len(racks) < 2 {
		t.Fatalf("shrink to 2 collapsed the block into one rack: %v", c.Replicas(b))
	}
}

// TestWriterLocalSlotIgnoresPendingBytes pins the one place a placement
// candidate is not judged by ScanEligible's predicate: DefaultPolicy's
// writer-local first slot tests Free(), not UncommittedFree(), so a writer
// whose remaining room is promised to in-flight copies still takes its own
// first replica — while the same node is no candidate for anyone else's
// block. Every golden was recorded with this; see DESIGN.md §5.
func TestWriterLocalSlotIgnoresPendingBytes(t *testing.T) {
	_, c := newCluster(t)
	const writer = DatanodeID(4)
	d := c.Datanode(writer)
	d.pendingBytes = d.Free() - 10*mb // 10 MB uncommitted: less than a block
	if d.UncommittedFree() >= 64*mb || d.Free() < 64*mb {
		t.Fatalf("setup: free %v, uncommitted %v", d.Free(), d.UncommittedFree())
	}
	probe := &Block{ID: -1, Size: 64 * mb}
	c.ScanEligible(probe, nil, func(id DatanodeID) bool {
		if id == writer {
			t.Errorf("ScanEligible offered %d, which has no uncommitted room for the block", id)
		}
		return false
	})
	f, err := c.CreateFile("/local", 64*mb, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Replicas(f.Blocks[0])[0]; got != writer {
		t.Errorf("first replica on %d, want the writer %d", got, writer)
	}
	// Written from elsewhere, the block must not land on the full-up node.
	g, err := c.CreateFile("/remote", 64*mb, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if replicaSet(c, g.Blocks[0])[writer] {
		t.Errorf("block written from node 9 placed on %d despite its committed space", writer)
	}
}
