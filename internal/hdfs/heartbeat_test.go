package hdfs

import (
	"fmt"
	"testing"
	"time"

	"erms/internal/sim"
	"erms/internal/topology"
)

// newHeartbeatCluster builds a cluster with heartbeat failure detection on
// short test timeouts: 3s interval, 30s stale, 2m dead.
func newHeartbeatCluster(t *testing.T) (*sim.Engine, *Cluster) {
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
	})
	return e, c
}

// TestHeartbeatDelayedDetection pins the crash → stale → dead timeline: a
// crashed node's replicas stay credited (and no repair traffic moves)
// until DeadTimeout, the node turns stale at StaleTimeout, and only the
// dead declaration releases the replicas and triggers re-replication.
func TestHeartbeatDelayedDetection(t *testing.T) {
	e, c := newHeartbeatCluster(t)
	f, _ := c.CreateFile("/a", 192*mb, 3, 0)
	stop := c.StartReplicationMonitor(5 * time.Second)
	defer stop()
	bid := f.Blocks[0]
	victim := c.Replicas(bid)[0]

	e.At(1*time.Second, func() { c.Kill(victim) })

	// Before StaleTimeout: the namenode suspects nothing.
	e.RunUntil(25 * time.Second)
	d := c.Datanode(victim)
	if d.Stale || d.State != StateActive {
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

	// Past DeadTimeout: declared dead, replicas released, monitor heals.
	e.RunUntil(6 * time.Minute)
	if got := c.Datanode(victim).State; got != StateDown {
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

// TestPartitionHealedBeforeDeadTimeoutCostsNothing is the tentpole's core
// guarantee: a rack partition that heals inside DeadTimeout causes zero
// re-replication — the nodes rejoin with their blocks intact.
func TestPartitionHealedBeforeDeadTimeoutCostsNothing(t *testing.T) {
	e, c := newHeartbeatCluster(t)
	f, _ := c.CreateFile("/a", 320*mb, 3, 0)
	stop := c.StartReplicationMonitor(5 * time.Second)
	defer stop()

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
		if d.State == StateDown || d.Stale {
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
	e, c := newHeartbeatCluster(t)
	f, _ := c.CreateFile("/a", 320*mb, 3, 0)
	stop := c.StartReplicationMonitor(5 * time.Second)
	defer stop()

	e.At(5*time.Second, func() { c.PartitionRack(0) })
	e.RunUntil(15 * time.Minute)

	rack0 := c.Topology().NodesInRack(0)
	for _, n := range rack0 {
		if got := c.Datanode(DatanodeID(n)).State; got != StateDown {
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

// TestPartitionAbortsCrossingFlows: reads served from a rack that gets cut
// off retry transparently on replicas outside it.
func TestPartitionAbortsCrossingFlows(t *testing.T) {
	e, c := newHeartbeatCluster(t)
	c.CreateFile("/a", 256*mb, 3, 0)
	var res *ReadResult
	c.ReadFile(ExternalClient, "/a", func(r *ReadResult) { res = r })
	e.Schedule(300*time.Millisecond, func() { c.PartitionRack(0) })
	e.RunUntil(5 * time.Minute)
	if res == nil {
		t.Fatal("read never completed")
	}
	if res.Err != nil {
		t.Fatalf("read should fail over out of the partitioned rack: %v", res.Err)
	}
}

// TestStaleReplicaAvoidedForReads: the replica selector prefers any fresh
// replica over a stale one, but still uses the stale one as a last resort.
func TestStaleReplicaAvoidedForReads(t *testing.T) {
	_, c := newHeartbeatCluster(t)
	f, _ := c.CreateFile("/a", 64*mb, 2, 0)
	bid := f.Blocks[0]
	reps := c.Replicas(bid)
	stale, fresh := reps[0], reps[1]
	c.Datanode(stale).Stale = true

	got, _, ok := c.selectReplica(ExternalClient, bid, nil)
	if !ok || got != fresh {
		t.Fatalf("selector chose %d, want fresh %d", got, fresh)
	}
	// Last resort: with the fresh copy excluded, the stale one serves.
	got, _, ok = c.selectReplica(ExternalClient, bid, map[DatanodeID]bool{fresh: true})
	if !ok || got != stale {
		t.Fatalf("stale last resort: got %d ok=%v", got, ok)
	}
}

// TestRestartOfCrashedNodeBeforeDeadTimeout: restarting a crashed node the
// namenode has not yet declared dead first releases its old replicas
// (fresh disk), then rejoins it empty and active.
func TestRestartOfCrashedNodeBeforeDeadTimeout(t *testing.T) {
	e, c := newHeartbeatCluster(t)
	f, _ := c.CreateFile("/a", 128*mb, 3, 0)
	bid := f.Blocks[0]
	victim := c.Replicas(bid)[0]
	downs := 0
	ups := 0
	c.OnDatanodeDown(func(DatanodeID) { downs++ })
	c.OnDatanodeUp(func(DatanodeID) { ups++ })

	e.At(1*time.Second, func() { c.Kill(victim) })
	e.At(5*time.Second, func() { c.Restart(victim) })
	e.RunUntil(10 * time.Second)

	d := c.Datanode(victim)
	if d.State != StateActive || d.Fault() != (Fault{}) || d.Stale {
		t.Fatalf("restarted node: state=%s fault=%+v stale=%v", d.State, d.Fault(), d.Stale)
	}
	if d.NumBlocks() != 0 {
		t.Fatalf("restarted node kept %d blocks", d.NumBlocks())
	}
	if downs != 1 || ups != 1 {
		t.Fatalf("down/up notifications = %d/%d, want 1/1", downs, ups)
	}
	if got := len(c.Replicas(bid)); got != 2 {
		t.Fatalf("replicas after restart = %d, want 2 (old copy wiped)", got)
	}
	checkConsistency(t, c)
}

// TestKillMidDecommissionAborts pins the finishDrain fix: a node killed
// while decommissioning must NOT finish the retirement (which would
// resurrect it as Decommissioned); the decommission reports an error and
// the node stays down.
func TestKillMidDecommissionAborts(t *testing.T) {
	e, c := newCluster(t) // heartbeats off: Kill declares dead instantly
	c.CreateFile("/a", 256*mb, 3, 0)
	victim := c.Replicas(c.File("/a").Blocks[0])[0]
	var err error
	done := false
	c.Decommission(victim, func(e2 error) { err = e2; done = true })
	e.Schedule(500*time.Millisecond, func() { c.Kill(victim) })
	e.Run()
	if !done {
		t.Fatal("decommission callback never fired")
	}
	if err == nil {
		t.Fatal("decommission of a node killed mid-drain must error")
	}
	if got := c.Datanode(victim).State; got != StateDown {
		t.Fatalf("killed node resurrected as %s", got)
	}
	checkConsistency(t, c)
}

// TestRestartMidDecommissionAborts: killing and restarting a node while
// its drain is in flight leaves it Active (the restart wins) and the
// decommission aborts with an error instead of retiring the live node.
func TestRestartMidDecommissionAborts(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/a", 256*mb, 3, 0)
	victim := c.Replicas(c.File("/a").Blocks[0])[0]
	var err error
	done := false
	c.Decommission(victim, func(e2 error) { err = e2; done = true })
	e.Schedule(500*time.Millisecond, func() {
		c.Kill(victim)
		c.Restart(victim)
	})
	e.Run()
	if !done {
		t.Fatal("decommission callback never fired")
	}
	if err == nil {
		t.Fatal("decommission interrupted by restart must error")
	}
	if got := c.Datanode(victim).State; got != StateActive {
		t.Fatalf("restarted node is %s, want active", got)
	}
	checkConsistency(t, c)
}

// TestCrashedNodeRejectsDecommission: a crashed (but not yet declared
// dead) node cannot start decommissioning.
func TestCrashedNodeRejectsDecommission(t *testing.T) {
	e, c := newHeartbeatCluster(t)
	c.CreateFile("/a", 64*mb, 2, 0)
	victim := c.Replicas(c.File("/a").Blocks[0])[0]
	c.Kill(victim)
	var err error
	done := false
	c.Decommission(victim, func(e2 error) { err = e2; done = true })
	e.RunUntil(time.Minute)
	if !done || err == nil {
		t.Fatalf("decommission of a crashed node should fail (done=%v err=%v)", done, err)
	}
	if want := fmt.Sprintf("hdfs: %s has crashed", c.Datanode(victim).Name); err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
}

// TestStandbyOfCrashedNodeBillsUptimeOnce: a crash closes the node's uptime
// interval, so taking the node to standby before the detector notices the
// crash — the namenode still believes it active — must not bill the
// interval a second time. The manager reaches this path when it powers down
// a drained pool node that crashed unnoticed.
func TestStandbyOfCrashedNodeBillsUptimeOnce(t *testing.T) {
	e, c := newHeartbeatCluster(t)
	e.RunUntil(10 * time.Minute)
	c.Kill(5)
	e.RunUntil(10*time.Minute + 10*time.Second)
	c.ToStandby(5)
	d := c.Datanode(5)
	if d.State != StateStandby || d.ActiveTime != 10*time.Minute || d.OpenActiveInterval(e.Now()) != 0 {
		t.Fatalf("state %s, ActiveTime %v, open %v; want standby, 10m0s, 0",
			d.State, d.ActiveTime, d.OpenActiveInterval(e.Now()))
	}
}

// TestSetFaultVerdicts pins which faults take: SetFault's verdict is what
// the chaos harness counts as applied or skipped.
func TestSetFaultVerdicts(t *testing.T) {
	e, c := newHeartbeatCluster(t)
	disk := c.Topology().Node(2).Disk
	steps := []struct {
		name string
		do   func() bool
		want bool
	}{
		{"unknown id", func() bool { return c.SetFault(99999, Fault{Muted: true}) }, false},
		{"negative id", func() bool { return c.SetFault(-1, Fault{Slow: 0.5}) }, false},
		{"kill unknown id", func() bool { return c.Kill(-1) }, false},
		{"restart unknown id", func() bool { return c.Restart(99999) }, false},
		{"negative slow", func() bool { return c.SetFault(2, Fault{Slow: -1}) }, false},
		{"no change", func() bool { return c.SetFault(2, Fault{}) }, false},
		{"restart a live node", func() bool { return c.Restart(2) }, false},
		{"mute", func() bool { return c.SetFault(2, Fault{Muted: true}) }, true},
		{"mute again", func() bool { return c.SetFault(2, Fault{Muted: true}) }, false},
		{"slow", func() bool { return c.SetFault(2, Fault{Muted: true, Slow: 0.5}) }, true},
		{"same slow again", func() bool { return c.SetFault(2, Fault{Muted: true, Slow: 0.5}) }, true},
		{"kill", func() bool { return c.Kill(2) }, true},
		{"kill again", func() bool { return c.Kill(2) }, false},
		{"clear the crash", func() bool { return c.SetFault(2, Fault{Muted: true}) }, false},
		{"unmute a crashed node", func() bool { return c.SetFault(2, Fault{Crashed: true}) }, true},
		{"mute a crashed node", func() bool { return c.SetFault(2, Fault{Crashed: true, Muted: true}) }, false},
		{"slow a crashed node", func() bool { return c.SetFault(2, Fault{Crashed: true, Slow: 0.25}) }, true},
		{"restart", func() bool { return c.Restart(2) }, true},
		{"restore", func() bool { return c.SetFault(2, Fault{Slow: 1}) }, true},
		{"restore again", func() bool { return c.SetFault(2, Fault{Slow: 1}) }, true},
	}
	for _, s := range steps {
		if got := s.do(); got != s.want {
			t.Fatalf("%s: took = %v, want %v (fault %+v)", s.name, got, s.want, c.Datanode(2).Fault())
		}
		if s.name == "restart" {
			// Restart revives the process, not the hardware: the slow disk stays.
			if f := c.Datanode(2).Fault(); f != (Fault{Slow: 0.25}) || c.Fabric().LinkFactor(disk) != 0.25 {
				t.Fatalf("after restart: fault %+v, disk factor %v", f, c.Fabric().LinkFactor(disk))
			}
		}
	}
	if f := c.Datanode(2).Fault(); f != (Fault{}) || c.Fabric().LinkFactor(disk) != 1 {
		t.Fatalf("after restore: fault %+v, disk factor %v", f, c.Fabric().LinkFactor(disk))
	}
	e.RunUntil(time.Minute)
}
