package chaos

import (
	"strings"
	"testing"
	"time"

	"erms/internal/auditlog"
	"erms/internal/hdfs"
	"erms/internal/sim"
	"erms/internal/topology"
)

const mb = 1e6

func newCluster(t *testing.T) (*sim.Engine, *hdfs.Cluster) {
	t.Helper()
	e := sim.NewEngine()
	c := hdfs.New(e, hdfs.Config{Topology: topology.New(topology.Config{})})
	return e, c
}

// TestPlanAppliesScriptedFaults: a hand-written plan fires each fault at
// its scheduled time and the report tallies per kind.
func TestPlanAppliesScriptedFaults(t *testing.T) {
	e, c := newCluster(t)
	f, _ := c.CreateFile("/a", 128*mb, 3, 0)
	victim := c.Replicas(f.Blocks[0])[0]
	p := &Plan{Events: []Event{
		{At: 10 * time.Second, Kind: Crash, Node: victim},
		{At: 30 * time.Second, Kind: Restart, Node: victim},
		{At: 40 * time.Second, Kind: PartitionRack, Rack: 1},
		{At: 50 * time.Second, Kind: HealRack, Rack: 1},
		{At: 60 * time.Second, Kind: SlowNode, Node: victim, Factor: 0.25},
		{At: 70 * time.Second, Kind: RestoreNode, Node: victim},
		{At: 80 * time.Second, Kind: CorruptReplica, BlockOrdinal: 0, ReplicaOrdinal: 0},
	}}
	rep := p.Schedule(e, c)

	e.RunUntil(20 * time.Second)
	if got := c.Datanode(victim).State; got != hdfs.StateDown {
		t.Fatalf("node after crash = %s", got)
	}
	e.RunUntil(35 * time.Second)
	if got := c.Datanode(victim).State; got != hdfs.StateActive {
		t.Fatalf("node after restart = %s", got)
	}
	e.RunUntil(45 * time.Second)
	if !c.RackPartitioned(1) {
		t.Fatal("rack not partitioned")
	}
	e.RunUntil(2 * time.Minute)
	if c.RackPartitioned(1) {
		t.Fatal("rack not healed")
	}
	if rep.Applied != 7 || rep.Skipped != 0 {
		t.Fatalf("report = %+v", rep)
	}
	for _, k := range []string{"crash", "restart", "partition", "heal", "slow", "restore", "corrupt"} {
		if rep.PerKind[k] != 1 {
			t.Fatalf("PerKind[%s] = %d", k, rep.PerKind[k])
		}
	}
}

// TestPlanSkipsInvalidTargets: events with no valid target at fire time
// are counted as skipped, not applied and not fatal.
func TestPlanSkipsInvalidTargets(t *testing.T) {
	e, c := newCluster(t) // empty namespace
	p := &Plan{Events: []Event{
		{At: time.Second, Kind: Restart, Node: 0},  // node is up
		{At: time.Second, Kind: HealRack, Rack: 0}, // not partitioned
		{At: time.Second, Kind: CorruptReplica},    // no blocks exist
		{At: 2 * time.Second, Kind: Crash, Node: 3},
		{At: 3 * time.Second, Kind: Crash, Node: 3}, // already down
		{At: 4 * time.Second, Kind: Restart, Node: 3},
		{At: 5 * time.Second, Kind: UnmuteNode, Node: 4}, // not muted
		{At: 5 * time.Second, Kind: SlowNode, Node: 4},   // no factor
		{At: 6 * time.Second, Kind: MuteNode, Node: 4},
		{At: 7 * time.Second, Kind: MuteNode, Node: 4}, // already muted
		{At: 8 * time.Second, Kind: Crash, Node: 4},
		{At: 9 * time.Second, Kind: MuteNode, Node: 4},   // down
		{At: 9 * time.Second, Kind: UnmuteNode, Node: 4}, // down, but muted
		// A slow or restore of a known node always applies, down or not.
		{At: 9 * time.Second, Kind: RestoreNode, Node: 4},
		{At: 9 * time.Second, Kind: SlowNode, Node: 4, Factor: 0.5},
		{At: 9 * time.Second, Kind: SlowNode, Node: 4, Factor: 0.5},
	}}
	// Every node kind at an id outside the cluster is skipped, not a panic.
	for _, id := range []hdfs.DatanodeID{99999, -1} {
		for _, k := range []Kind{Crash, Restart, MuteNode, UnmuteNode, SlowNode, RestoreNode} {
			p.Events = append(p.Events, Event{At: time.Second, Kind: k, Node: id, Factor: 0.5})
		}
	}
	rep := p.Schedule(e, c)
	e.RunUntil(10 * time.Second)
	if rep.Applied != 8 || rep.Skipped != 20 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestZombiePrimaryDrill: on a journaled cluster the drill's late create
// and delete both bounce off the epoch fence without touching durable
// state, and the primary ends unfenced; a cluster with no journal skips
// the event.
func TestZombiePrimaryDrill(t *testing.T) {
	p := &Plan{Events: []Event{{At: time.Second, Kind: ZombiePrimary}}}

	e, c := newCluster(t)
	c.SetJournal(auditlog.NewJournal())
	if _, err := c.CreateFile("/a", 128*mb, 3, 0); err != nil {
		t.Fatal(err)
	}
	before, m := c.StateDigest(), c.Metrics()
	rep := p.Schedule(e, c)
	e.RunUntil(2 * time.Second)
	if rep.Applied != 1 || rep.PerKind["zombie-primary"] != 1 {
		t.Fatalf("report = %+v", rep)
	}
	got := c.Metrics()
	if got.FencedWritesRejected != m.FencedWritesRejected+2 {
		t.Errorf("fenced writes rejected %d -> %d, want +2", m.FencedWritesRejected, got.FencedWritesRejected)
	}
	if got.FencedWritesApplied != m.FencedWritesApplied {
		t.Errorf("fenced writes applied %d -> %d", m.FencedWritesApplied, got.FencedWritesApplied)
	}
	if c.StateDigest() != before {
		t.Error("the zombie's writes changed durable state")
	}
	if _, err := c.CreateFile("/b", 128*mb, 3, 1); err != nil {
		t.Errorf("create after the drill: %v", err)
	}

	e, c = newCluster(t)
	rep = p.Schedule(e, c)
	e.RunUntil(2 * time.Second)
	if rep.Applied != 0 || rep.Skipped != 1 {
		t.Fatalf("journal-less report = %+v", rep)
	}
}

// TestSlowNodeComposesFromNominal: repeated SlowNode events replace the
// factor rather than compounding, and RestoreNode returns to nominal.
func TestSlowNodeComposesFromNominal(t *testing.T) {
	e, c := newCluster(t)
	node := c.Topology().Node(topology.NodeID(2))
	nominal := c.Fabric().LinkFactor(node.Disk)
	if nominal != 1 {
		t.Fatalf("nominal factor = %v", nominal)
	}
	p := &Plan{Events: []Event{
		{At: time.Second, Kind: SlowNode, Node: 2, Factor: 0.5},
		{At: 2 * time.Second, Kind: SlowNode, Node: 2, Factor: 0.25},
		{At: 3 * time.Second, Kind: RestoreNode, Node: 2},
	}}
	p.Schedule(e, c)
	e.RunUntil(2500 * time.Millisecond)
	if got := c.Fabric().LinkFactor(node.Disk); got != 0.25 {
		t.Fatalf("factor after second slow = %v (must not compound)", got)
	}
	e.RunUntil(5 * time.Second)
	if got := c.Fabric().LinkFactor(node.Disk); got != 1 {
		t.Fatalf("factor after restore = %v", got)
	}
}

// TestStormDeterminism: equal configs yield byte-identical plans; a
// different seed yields a different plan.
func TestStormDeterminism(t *testing.T) {
	cfg := StormConfig{
		Seed:        7,
		Duration:    6 * time.Hour,
		Nodes:       []hdfs.DatanodeID{0, 1, 2, 3, 4, 5},
		Racks:       []int{0, 1, 2},
		Crashes:     8,
		Partitions:  2,
		Corruptions: 12,
		SlowNodes:   3,
	}
	a := Storm(cfg).String()
	b := Storm(cfg).String()
	if a != b {
		t.Fatal("same seed produced different plans")
	}
	cfg.Seed = 8
	if Storm(cfg).String() == a {
		t.Fatal("different seed produced identical plan")
	}
}

// TestStormShape: the generated plan has the requested pair structure,
// stays inside the window, is time-sorted, and honours MaxConcurrentDown.
func TestStormShape(t *testing.T) {
	cfg := StormConfig{
		Seed:              3,
		Duration:          2 * time.Hour,
		Nodes:             []hdfs.DatanodeID{0, 1, 2, 3, 4, 5, 6, 7},
		Racks:             []int{0, 1},
		Crashes:           6,
		Partitions:        2,
		Corruptions:       10,
		SlowNodes:         2,
		MaxConcurrentDown: 2,
	}
	p := Storm(cfg)
	counts := map[Kind]int{}
	last := time.Duration(-1)
	for _, ev := range p.Events {
		counts[ev.Kind]++
		if ev.At < last {
			t.Fatal("plan not sorted by time")
		}
		last = ev.At
	}
	if counts[Crash] != 6 || counts[Restart] != 6 {
		t.Fatalf("crash/restart = %d/%d", counts[Crash], counts[Restart])
	}
	if counts[PartitionRack] != 2 || counts[HealRack] != 2 {
		t.Fatalf("partition/heal = %d/%d", counts[PartitionRack], counts[HealRack])
	}
	if counts[CorruptReplica] != 10 {
		t.Fatalf("corruptions = %d", counts[CorruptReplica])
	}
	if counts[SlowNode] != 2 || counts[RestoreNode] != 2 {
		t.Fatalf("slow/restore = %d/%d", counts[SlowNode], counts[RestoreNode])
	}

	// Replay the crash/restart pairing per node to bound concurrent downs.
	down := 0
	maxDown := 0
	for _, ev := range p.Events {
		switch ev.Kind {
		case Crash:
			down++
			if down > maxDown {
				maxDown = down
			}
		case Restart:
			down--
		}
	}
	if maxDown > cfg.MaxConcurrentDown {
		t.Fatalf("max concurrent down = %d, bound %d", maxDown, cfg.MaxConcurrentDown)
	}
	if down != 0 {
		t.Fatalf("storm leaves %d nodes permanently down", down)
	}
}

// TestPlanString: the rendering is line-per-event (used for golden
// comparisons in determinism tests).
func TestPlanString(t *testing.T) {
	p := &Plan{Events: []Event{
		{At: 90 * time.Second, Kind: Crash, Node: 4},
		{At: 2 * time.Minute, Kind: CorruptReplica, BlockOrdinal: 17, ReplicaOrdinal: 2},
	}}
	s := p.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("rendered %d lines: %q", len(lines), s)
	}
	if !strings.Contains(lines[0], "crash") || !strings.Contains(lines[1], "ord=17/2") {
		t.Fatalf("unexpected rendering: %q", s)
	}
}
