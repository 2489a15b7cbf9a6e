package hdfs

import (
	"bytes"
	"testing"
	"time"

	"erms/internal/auditlog"
	"erms/internal/sim"
	"erms/internal/topology"
)

// Failure-injection tests: the cluster must stay consistent and make
// progress when nodes die at the worst moments.

func TestKillSourceDuringReplication(t *testing.T) {
	e, c := newCluster(t)
	f, _ := c.CreateFile("/a", 256*mb, 2, 0)
	var err error
	done := false
	c.SetReplication("/a", 4, WholeAtOnce, func(e2 error) { err = e2; done = true })
	// Kill one source mid-burst: transfers sourced there must retry from
	// the surviving replica.
	e.Schedule(1500*time.Millisecond, func() { c.Kill(c.Replicas(f.Blocks[0])[0]) })
	e.Run()
	if !done {
		t.Fatal("replication never completed")
	}
	if err != nil {
		t.Fatalf("replication failed despite a live source: %v", err)
	}
	checkConsistency(t, c)
	for _, bid := range f.Blocks {
		if got := len(c.Replicas(bid)); got < 3 {
			// The dead node's own replica is gone; the grow added 2 new
			// ones on live nodes at minimum.
			t.Fatalf("block %d has %d replicas", bid, got)
		}
	}
}

func TestKillTargetDuringReplication(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/a", 64*mb, 1, 0)
	bid := c.File("/a").Blocks[0]
	// Pick the target the policy will use and kill it mid-copy.
	b, _ := c.Block(bid)
	targets := c.PlacementPolicy().ChooseTargets(nil, c, b, 1, -1, nil)
	if len(targets) != 1 {
		t.Fatal("no target")
	}
	var err error
	done := false
	c.AddReplica(bid, targets[0], func(e2 error) { err = e2; done = true })
	e.Schedule(1200*time.Millisecond, func() { c.Kill(targets[0]) })
	e.Run()
	if !done {
		t.Fatal("AddReplica never completed")
	}
	if err == nil {
		t.Fatal("copy to a dead target should fail")
	}
	checkConsistency(t, c)
	if len(c.Replicas(bid)) != 1 {
		t.Fatalf("replicas = %v", c.Replicas(bid))
	}
}

func TestKillEncoderSourceDuringEncode(t *testing.T) {
	e, c := newCluster(t)
	f, _ := c.CreateFile("/cold", 320*mb, 3, 0)
	var err error
	done := false
	c.EncodeFile("/cold", 5, 2, func(e2 error) { err = e2; done = true })
	e.Schedule(500*time.Millisecond, func() {
		c.Kill(c.Replicas(f.Blocks[0])[0])
	})
	e.Run()
	if !done {
		t.Fatal("encode never completed")
	}
	// Either outcome is acceptable (fail cleanly or succeed from other
	// replicas), but the namespace must stay consistent either way.
	_ = err
	checkConsistency(t, c)
}

// TestEncodeRetryKeepsOneStripeLayout: a retry of a failed encode (Condor
// retries ActionEncode before it rolls back) mints its parity over the
// failed attempt's leftovers, so the file must end with exactly stripes × m
// parity blocks, numbered so that a restore, which numbers parity by list
// position, derives the same stripe members as the live cluster.
func TestEncodeRetryKeepsOneStripeLayout(t *testing.T) {
	e, c := newCluster(t)
	c.SetJournal(auditlog.NewJournal())
	f, _ := c.CreateFile("/cold", 320*mb, 3, 0) // 5 blocks: stripes of 2, 2, 1
	const k, m = 2, 2
	var before bytes.Buffer
	if err := c.WriteCheckpoint(&before); err != nil {
		t.Fatal(err)
	}
	seq := c.Journal().NextSeq()
	var err error
	c.EncodeFile("/cold", k, m, func(e2 error) { err = e2 })
	// Node 0 holds the writer's replica of every block: killing it
	// mid-encode aborts the reads streaming from it.
	e.Schedule(500*time.Millisecond, func() { c.Kill(0) })
	e.Run()
	if err == nil {
		t.Fatal("setup: the first encode attempt did not fail")
	}
	c.EncodeFile("/cold", k, m, func(e2 error) { err = e2 })
	e.Run()
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if want := 3 * m; len(f.Parity) != want {
		t.Fatalf("%d parity blocks after the retry, want %d", len(f.Parity), want)
	}
	var after bytes.Buffer
	if err := c.WriteCheckpoint(&after); err != nil {
		t.Fatal(err)
	}
	restored, err := c.Shadow(after.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := c.Shadow(before.Bytes(), c.Journal().Tail(seq))
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range f.Parity {
		live, _ := c.Block(pid)
		for name, s := range map[string]*Cluster{"restored": restored, "replayed": replayed} {
			b, ok := s.Block(pid)
			if !ok || b.Index != live.Index || b.Group != live.Group {
				t.Errorf("parity %d: %s {Index %d, Group %d}, live {Index %d, Group %d}",
					pid, name, b.Index, b.Group, live.Index, live.Group)
			}
		}
	}
	checkConsistency(t, c)
}

func TestCascadingFailuresWithMonitor(t *testing.T) {
	e, c := newCluster(t)
	f, _ := c.CreateFile("/a", 320*mb, 3, 0)
	stop := c.StartReplicationMonitor(5 * time.Second)
	defer stop()
	// Kill three nodes 30 s apart; triplication + re-replication must keep
	// every block alive.
	victims := map[DatanodeID]bool{}
	for i, bid := range f.Blocks[:3] {
		reps := c.Replicas(bid)
		for _, r := range reps {
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

func TestCapacityExhaustion(t *testing.T) {
	e := sim.NewEngine()
	topo := topology.New(topology.Config{})
	c := New(e, Config{Topology: topo, NodeCapacity: 200 * mb})
	// 200 MB per node x 18 = 3.6 GB raw; a 512 MB file at 3x wants 1.5 GB —
	// fine. A second one at 8x would not fit.
	if _, err := c.CreateFile("/a", 512*mb, 3, -1); err != nil {
		t.Fatal(err)
	}
	var err error
	done := false
	c.SetReplication("/a", 18, WholeAtOnce, func(e2 error) { err = e2; done = true })
	e.Run()
	if !done {
		t.Fatal("setrep never completed")
	}
	if err == nil {
		t.Fatal("over-capacity replication should report an error")
	}
	checkConsistency(t, c)
	// Every node must stay within capacity.
	for _, d := range c.Datanodes() {
		if d.Used > d.Capacity {
			t.Fatalf("%s over capacity: %v > %v", d.Name, d.Used, d.Capacity)
		}
	}
}

func TestReadDuringMassFailure(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/a", 640*mb, 3, 0)
	results := 0
	failures := 0
	for i := 0; i < 10; i++ {
		c.ReadFileAt(topology.NodeID(i), "/a", i, func(r *ReadResult) {
			results++
			if r.Err != nil {
				failures++
			}
		})
	}
	// Kill a third of the cluster during the reads.
	for i := 0; i < 6; i++ {
		id := DatanodeID(i * 3)
		e.Schedule(time.Duration(200+i*150)*time.Millisecond, func() { c.Kill(id) })
	}
	e.Run()
	if results != 10 {
		t.Fatalf("only %d of 10 reads called back", results)
	}
	// With 3x replication across 3 racks, most reads should survive six
	// node deaths; all callbacks must fire regardless.
	if failures == 10 {
		t.Fatal("every read failed; retry path broken")
	}
	checkConsistency(t, c)
}

func TestStandbyTransitionDuringRead(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/a", 128*mb, 2, 0)
	var res *ReadResult
	c.ReadFile(9, "/a", func(r *ReadResult) { res = r })
	// Push the serving node to standby mid-read: the read must fail over.
	e.Schedule(300*time.Millisecond, func() {
		for _, r := range c.Replicas(c.File("/a").Blocks[0]) {
			c.ToStandby(r)
			break
		}
	})
	e.Run()
	if res == nil || res.Err != nil {
		t.Fatalf("read should survive standby transition: %+v", res)
	}
}
