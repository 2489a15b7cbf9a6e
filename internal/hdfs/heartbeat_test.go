package hdfs

import (
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
