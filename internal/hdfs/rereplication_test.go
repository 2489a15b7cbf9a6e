package hdfs_test

import (
	"testing"
	"time"

	"erms/internal/core"
	"erms/internal/hdfs"
	"erms/internal/sim"
	"erms/internal/topology"
)

// Re-replication after node death, driven by the one re-replicator: the
// ERMS manager's repair pipeline, which sizes each block's copies by
// Cluster.Deficit. The judge's period is a day, so it never runs; what
// moves replicas here is the repair sweep each death triggers.

const mb = float64(topology.MB)

// withRepair attaches a manager to c whose only work is repair.
func withRepair(c *hdfs.Cluster) { core.New(c, core.Config{JudgePeriod: 24 * time.Hour}) }

// newRepairCluster builds the default 18-node, 3-rack cluster with
// heartbeats off (Kill declares death at once), under repair.
func newRepairCluster() (*sim.Engine, *hdfs.Cluster) {
	e := sim.NewEngine()
	c := hdfs.New(e, hdfs.Config{Topology: topology.New(topology.Config{})})
	withRepair(c)
	return e, c
}

// newHeartbeatRepairCluster is newRepairCluster with heartbeat failure
// detection on short test timeouts: 3s interval, 30s stale, 2m dead.
func newHeartbeatRepairCluster() (*sim.Engine, *hdfs.Cluster) {
	e := sim.NewEngine()
	c := hdfs.New(e, hdfs.Config{
		Topology: topology.New(topology.Config{}),
		Heartbeat: hdfs.HeartbeatConfig{
			Enabled:      true,
			Interval:     3 * time.Second,
			StaleTimeout: 30 * time.Second,
			DeadTimeout:  2 * time.Minute,
		},
	})
	withRepair(c)
	return e, c
}

func checkConsistency(t *testing.T, c *hdfs.Cluster) {
	t.Helper()
	for _, msg := range c.ConsistencyErrors() {
		t.Errorf("consistency: %s", msg)
	}
}

func TestReplicationMonitorHeals(t *testing.T) {
	e, c := newRepairCluster()
	f, _ := c.CreateFile("/a", 64*mb, 3, 0)
	victim := c.Replicas(f.Blocks[0])[0]
	c.Kill(victim)
	if len(c.UnderReplicated()) != 1 {
		t.Fatalf("under-replicated = %v", c.UnderReplicated())
	}
	e.RunUntil(30 * time.Second)
	if got := len(c.Replicas(f.Blocks[0])); got != 3 {
		t.Fatalf("replicas after heal = %d, want 3", got)
	}
	if len(c.UnderReplicated()) != 0 {
		t.Fatal("still under-replicated after repair ran")
	}
}

func TestCascadingFailuresWithMonitor(t *testing.T) {
	e, c := newRepairCluster()
	f, _ := c.CreateFile("/a", 320*mb, 3, 0)
	// Kill three nodes 30 s apart; triplication + re-replication must keep
	// every block alive.
	victims := map[hdfs.DatanodeID]bool{}
	for i, bid := range f.Blocks[:3] {
		for _, r := range c.Replicas(bid) {
			if !victims[r] {
				victims[r] = true
				r := r
				e.Schedule(time.Duration(i+1)*30*time.Second, func() { c.Kill(r) })
				break
			}
		}
	}
	e.RunUntil(10 * time.Minute)
	for _, bid := range f.Blocks {
		if len(c.Replicas(bid)) != 3 {
			t.Fatalf("block %d not healed: %v", bid, c.Replicas(bid))
		}
	}
	checkConsistency(t, c)
}

// TestRereplicationRestoresRackDiversity is the regression test for the
// placement fix the storm suite exposed: when a block's cross-rack
// replica dies and the survivors huddle in one rack, re-replication must
// place the new copy in a different rack — the slot heuristics alone would
// co-locate it and leave the block one rack outage from extinction.
func TestRereplicationRestoresRackDiversity(t *testing.T) {
	e, c := newRepairCluster()
	topo := c.Topology()
	// Writer-local slot 0 on node 0; slots 1 and 2 land together in some
	// other rack. Killing node 0 leaves every block single-rack.
	f, err := c.CreateFile("/div", 192*mb, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	rackSpan := func(bid hdfs.BlockID) int {
		racks := map[int]bool{}
		for _, r := range c.Replicas(bid) {
			racks[topo.Rack(topology.NodeID(r))] = true
		}
		return len(racks)
	}
	for _, bid := range f.Blocks {
		if got := rackSpan(bid); got < 2 {
			t.Fatalf("block %d not rack-diverse at creation: span %d", bid, got)
		}
	}
	// The repair sweep runs inside Kill; its copies start a negotiation
	// later, so the survivors are still single-rack here.
	c.Kill(0)
	for _, bid := range f.Blocks {
		if got := rackSpan(bid); got != 1 {
			t.Fatalf("scenario precondition: block %d survivors span %d racks, want 1", bid, got)
		}
	}

	e.RunUntil(10 * time.Minute)
	for _, bid := range f.Blocks {
		if got := len(c.Replicas(bid)); got != 3 {
			t.Fatalf("block %d not healed: %d replicas", bid, got)
		}
		if got := rackSpan(bid); got < 2 {
			t.Fatalf("block %d repaired into a single rack: replicas %v", bid, c.Replicas(bid))
		}
	}
	checkConsistency(t, c)
}

// TestHeartbeatDelayedDetection pins the crash → stale → dead timeline: a
// crashed node's replicas stay credited (and no repair traffic moves)
// until DeadTimeout, the node turns stale at StaleTimeout, and only the
// dead declaration releases the replicas and triggers re-replication.
func TestHeartbeatDelayedDetection(t *testing.T) {
	e, c := newHeartbeatRepairCluster()
	f, _ := c.CreateFile("/a", 192*mb, 3, 0)
	bid := f.Blocks[0]
	victim := c.Replicas(bid)[0]

	e.At(1*time.Second, func() { c.Kill(victim) })

	// Before StaleTimeout: the namenode suspects nothing.
	e.RunUntil(25 * time.Second)
	d := c.Datanode(victim)
	if d.Stale || d.State != hdfs.StateActive {
		t.Fatalf("node already distrusted before StaleTimeout: stale=%v state=%s", d.Stale, d.State)
	}
	if got := len(c.Replicas(bid)); got != 3 {
		t.Fatalf("replicas released early: %d", got)
	}
	if c.Metrics().ReplicasAdded != 0 {
		t.Fatal("repair traffic before StaleTimeout")
	}

	// Past StaleTimeout: stale, but replicas still credited, still no
	// repair (HDFS does not re-replicate for staleness).
	e.RunUntil(40 * time.Second)
	if !c.Datanode(victim).Stale {
		t.Fatal("node not stale past StaleTimeout")
	}
	if got := c.StaleNodes(); len(got) != 1 || got[0] != victim {
		t.Fatalf("StaleNodes = %v", got)
	}
	if got := len(c.Replicas(bid)); got != 3 {
		t.Fatalf("stale released replicas: %d", got)
	}
	if c.Metrics().ReplicasAdded != 0 {
		t.Fatal("repair traffic for a merely-stale node")
	}

	// Past DeadTimeout: declared dead, replicas released, repair heals.
	e.RunUntil(6 * time.Minute)
	if got := c.Datanode(victim).State; got != hdfs.StateDown {
		t.Fatalf("state past DeadTimeout = %s", got)
	}
	if c.Metrics().StaleTransitions == 0 {
		t.Fatal("stale transition not counted")
	}
	for _, b := range f.Blocks {
		reps := c.Replicas(b)
		if len(reps) != 3 {
			t.Fatalf("block %d not healed: %v", b, reps)
		}
		for _, r := range reps {
			if r == victim {
				t.Fatalf("block %d still credited to the dead node", b)
			}
		}
	}
	checkConsistency(t, c)
}

// TestPartitionHealedBeforeDeadTimeoutCostsNothing: a rack partition that
// heals inside DeadTimeout causes zero re-replication — the nodes rejoin
// with their blocks intact.
func TestPartitionHealedBeforeDeadTimeoutCostsNothing(t *testing.T) {
	e, c := newHeartbeatRepairCluster()
	f, _ := c.CreateFile("/a", 320*mb, 3, 0)

	e.At(10*time.Second, func() { c.PartitionRack(0) })
	e.At(70*time.Second, func() { c.HealRack(0) }) // 60s < 2m DeadTimeout

	e.RunUntil(10 * time.Minute)
	if c.Metrics().ReplicasAdded != 0 {
		t.Fatalf("healed partition cost %d replica copies", c.Metrics().ReplicasAdded)
	}
	if got := c.UnderReplicated(); len(got) != 0 {
		t.Fatalf("blocks under-replicated after heal: %v", got)
	}
	for _, d := range c.Datanodes() {
		if d.State == hdfs.StateDown || d.Stale {
			t.Fatalf("%s still down/stale after heal", d.Name)
		}
	}
	for _, bid := range f.Blocks {
		if len(c.Replicas(bid)) != 3 {
			t.Fatalf("block %d lost replicas: %v", bid, c.Replicas(bid))
		}
	}
	checkConsistency(t, c)
}

// TestPartitionBeyondDeadTimeout pins the other side: a partition that
// outlives DeadTimeout converges to the same state as crashing the rack —
// its nodes are declared dead and their blocks re-replicate elsewhere.
func TestPartitionBeyondDeadTimeout(t *testing.T) {
	e, c := newHeartbeatRepairCluster()
	f, _ := c.CreateFile("/a", 320*mb, 3, 0)

	e.At(5*time.Second, func() { c.PartitionRack(0) })
	e.RunUntil(15 * time.Minute)

	for _, n := range c.Topology().NodesInRack(0) {
		if got := c.Datanode(hdfs.DatanodeID(n)).State; got != hdfs.StateDown {
			t.Fatalf("partitioned node %d is %s, want down", n, got)
		}
	}
	for _, bid := range f.Blocks {
		reps := c.Replicas(bid)
		if len(reps) != 3 {
			t.Fatalf("block %d not healed: %v", bid, reps)
		}
		for _, r := range reps {
			if c.Topology().Rack(topology.NodeID(r)) == 0 {
				t.Fatalf("block %d still credited inside the dead rack", bid)
			}
		}
	}
	checkConsistency(t, c)
}
