package hdfs

import (
	"strings"
	"testing"
	"time"

	"erms/internal/sim"
	"erms/internal/topology"
)

const (
	mb = float64(topology.MB)
	gb = float64(topology.GB)
)

func newCluster(t *testing.T, standby ...DatanodeID) (*sim.Engine, *Cluster) {
	t.Helper()
	e := sim.NewEngine()
	topo := topology.New(topology.Config{}) // 18 nodes, 3 racks
	c := New(e, Config{
		Topology:         topo,
		StandbyNodes:     standby,
		KeepAuditRecords: true,
	})
	return e, c
}

func TestCreateFileSplitsBlocks(t *testing.T) {
	_, c := newCluster(t)
	f, err := c.CreateFile("/data/a", 200*mb, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 4 { // 64+64+64+8
		t.Fatalf("blocks = %d, want 4", len(f.Blocks))
	}
	last, _ := c.Block(f.Blocks[3])
	if last.Size != 8*mb {
		t.Fatalf("last block size = %v MB", last.Size/mb)
	}
	if c.Files() != 1 || c.File("/data/a") == nil {
		t.Fatal("file not registered")
	}
	if got := c.TotalUsed(); got != 3*200*mb {
		t.Fatalf("TotalUsed = %v MB, want 600", got/mb)
	}
}

func TestCreateFileValidation(t *testing.T) {
	_, c := newCluster(t)
	if _, err := c.CreateFile("/a", 0, 3, 0); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := c.CreateFile("/a", mb, 3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateFile("/a", mb, 3, 0); err == nil {
		t.Fatal("duplicate path accepted")
	}
}

func TestWriteAuditsCreate(t *testing.T) {
	_, c := newCluster(t)
	if _, err := c.CreateFile("/w", 64*mb, 2, 1); err != nil {
		t.Fatal(err)
	}
	recs := c.Audit().Records()
	if len(recs) != 1 || recs[0].Cmd != "create" || recs[0].Src != "/w" || recs[0].IP != c.clientIP(1) {
		t.Fatalf("audit = %v", recs)
	}
}

func TestDefaultPlacementRackAware(t *testing.T) {
	_, c := newCluster(t)
	f, err := c.CreateFile("/data/a", 64*mb, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	reps := c.Replicas(f.Blocks[0])
	if len(reps) != 3 {
		t.Fatalf("replicas = %v", reps)
	}
	if reps[0] != 0 {
		t.Fatalf("first replica should be writer-local, got %v", reps)
	}
	topo := c.Topology()
	r0 := topo.Rack(topology.NodeID(reps[0]))
	r1 := topo.Rack(topology.NodeID(reps[1]))
	r2 := topo.Rack(topology.NodeID(reps[2]))
	if r1 == r0 {
		t.Fatalf("second replica in writer's rack: racks %d %d %d", r0, r1, r2)
	}
	if r2 != r1 {
		t.Fatalf("third replica should share the second's rack: racks %d %d %d", r0, r1, r2)
	}
	if reps[1] == reps[2] {
		t.Fatal("second and third replica on the same node")
	}
	// Exactly two racks used — the paper's default policy.
	racks := map[int]bool{r0: true, r1: true, r2: true}
	if len(racks) != 2 {
		t.Fatalf("replicas span %d racks, want 2", len(racks))
	}
}

func TestPlacementAvoidsStandbyAndFullNodes(t *testing.T) {
	_, c := newCluster(t, 10, 11, 12, 13, 14, 15, 16, 17)
	f, err := c.CreateFile("/a", 64*mb, 5, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Replicas(f.Blocks[0]) {
		if c.Datanode(r).State != StateActive {
			t.Fatalf("replica placed on non-active node %d", r)
		}
	}
}

func TestLocalReadIsDiskSpeed(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/a", 160*mb, 3, 0)
	var res *ReadResult
	c.ReadFile(0, "/a", func(r *ReadResult) { res = r })
	e.Run()
	if res == nil || res.Err != nil {
		t.Fatalf("res = %+v", res)
	}
	// 160 MB at 80 MB/s disk = 2 s; all blocks node-local (writer-local
	// first replica).
	if res.NodeLocal != len(c.File("/a").Blocks) {
		t.Fatalf("node-local = %d", res.NodeLocal)
	}
	if d := res.Duration(); (d - 2*time.Second).Abs() > 50*time.Millisecond {
		t.Fatalf("duration = %v, want ~2s", d)
	}
	if tp := res.ThroughputMBps(); tp < 75 || tp > 85 {
		t.Fatalf("throughput = %.1f MB/s", tp)
	}
}

func TestRemoteReadLocalityCounters(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/a", 64*mb, 1, 0) // single replica on node 0 (rack 0)
	var res *ReadResult
	// Client on a node in another rack.
	var remoteClient topology.NodeID
	for _, n := range c.Topology().Nodes {
		if n.Rack != 0 {
			remoteClient = n.ID
			break
		}
	}
	c.ReadFile(remoteClient, "/a", func(r *ReadResult) { res = r })
	e.Run()
	if res.Remote != 1 || res.NodeLocal != 0 || res.RackLocal != 0 {
		t.Fatalf("locality = %+v", res)
	}
	m := c.Metrics()
	if m.RemoteReads != 1 || m.BlockReads != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestReadMissingFile(t *testing.T) {
	e, c := newCluster(t)
	var res *ReadResult
	c.ReadFile(0, "/nope", func(r *ReadResult) { res = r })
	e.Run()
	if res == nil || res.Err == nil {
		t.Fatal("missing file read should error")
	}
	// Audit shows a denied open.
	found := false
	for _, r := range c.Audit().Records() {
		if r.Src == "/nope" && !r.Allowed {
			found = true
		}
	}
	if !found {
		t.Fatal("denied audit record missing")
	}
}

func TestConcurrentReadersShareReplicas(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/hot", 64*mb, 3, 0)
	// 6 readers, all in rack 2 where no replica lives: every replica is
	// remote, so selection is purely load-balanced — two readers per
	// serving disk.
	var results []*ReadResult
	clients := []topology.NodeID{12, 13, 14, 15, 16, 17}
	for _, cl := range clients {
		c.ReadFile(cl, "/hot", func(r *ReadResult) { results = append(results, r) })
	}
	e.Run()
	if len(results) != 6 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		// 2 readers per 80 MB/s disk -> 40 MB/s each -> 1.6 s for 64 MB.
		if d := r.Duration(); (d - 1600*time.Millisecond).Abs() > 100*time.Millisecond {
			t.Fatalf("duration = %v, want ~1.6s", d)
		}
	}
}

func TestSessionLimitQueues(t *testing.T) {
	e := sim.NewEngine()
	topo := topology.New(topology.Config{})
	c := New(e, Config{Topology: topo, MaxSessionsPerNode: 1})
	c.CreateFile("/a", 64*mb, 1, 0)
	var done []time.Duration
	for i := 0; i < 3; i++ {
		c.ReadFile(topology.NodeID(i+1), "/a", func(r *ReadResult) {
			done = append(done, r.End)
		})
	}
	dn := c.Datanode(0)
	if dn.Sessions() != 1 || dn.QueueLen() != 2 {
		t.Fatalf("sessions=%d queue=%d", dn.Sessions(), dn.QueueLen())
	}
	e.Run()
	// Serialized at 80 MB/s: 0.8, 1.6, 2.4 s.
	want := []time.Duration{800 * time.Millisecond, 1600 * time.Millisecond, 2400 * time.Millisecond}
	for i := range want {
		if (done[i] - want[i]).Abs() > 50*time.Millisecond {
			t.Fatalf("done[%d] = %v, want %v", i, done[i], want[i])
		}
	}
}

func TestSetReplicationGrowAndShrink(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/a", 128*mb, 2, 0)
	var err error
	doneAt := time.Duration(0)
	c.SetReplication("/a", 5, WholeAtOnce, func(e2 error) { err = e2; doneAt = e.Now() })
	e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if doneAt == 0 {
		t.Fatal("done never fired")
	}
	if got := c.ReplicationOf("/a"); got != 5 {
		t.Fatalf("replication = %d, want 5", got)
	}
	if c.Metrics().ReplicasAdded != 6 { // 2 blocks x 3 new replicas
		t.Fatalf("ReplicasAdded = %d", c.Metrics().ReplicasAdded)
	}
	c.SetReplication("/a", 2, WholeAtOnce, func(e2 error) { err = e2 })
	e.Run()
	if err != nil || c.ReplicationOf("/a") != 2 {
		t.Fatalf("shrink: err=%v repl=%d", err, c.ReplicationOf("/a"))
	}
	if c.Metrics().ReplicasRemoved != 6 {
		t.Fatalf("ReplicasRemoved = %d", c.Metrics().ReplicasRemoved)
	}
}

func TestWholeAtOnceFasterThanOneByOne(t *testing.T) {
	run := func(mode ReplicationMode) time.Duration {
		e := sim.NewEngine()
		topo := topology.New(topology.Config{})
		c := New(e, Config{Topology: topo})
		c.CreateFile("/a", 512*mb, 3, 0)
		var doneAt time.Duration
		c.SetReplication("/a", 6, mode, func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			doneAt = e.Now()
		})
		e.Run()
		return doneAt
	}
	whole := run(WholeAtOnce)
	oneByOne := run(OneByOne)
	if whole >= oneByOne {
		t.Fatalf("whole=%v should beat one-by-one=%v", whole, oneByOne)
	}
}

func TestRemoveLastReplicaRefused(t *testing.T) {
	_, c := newCluster(t)
	f, _ := c.CreateFile("/a", 64*mb, 1, 0)
	bid := f.Blocks[0]
	if err := c.RemoveReplica(bid, c.Replicas(bid)[0]); err == nil {
		t.Fatal("removed last replica")
	}
}

func TestKillRetriesInFlightReads(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/a", 64*mb, 3, 0)
	var res *ReadResult
	c.ReadFile(0, "/a", func(r *ReadResult) { res = r })
	// Kill the serving node (node 0, the local replica) mid-read.
	e.Schedule(200*time.Millisecond, func() { c.Kill(0) })
	e.Run()
	if res == nil || res.Err != nil {
		t.Fatalf("read should survive node death via retry: %+v", res)
	}
	if res.NodeLocal != 0 {
		t.Fatal("retried read cannot be node-local (node is dead)")
	}
}

func TestKillAllReplicasFailsRead(t *testing.T) {
	e, c := newCluster(t)
	f, _ := c.CreateFile("/a", 64*mb, 1, 0)
	c.Kill(c.Replicas(f.Blocks[0])[0])
	var res *ReadResult
	c.ReadFile(5, "/a", func(r *ReadResult) { res = r })
	e.Run()
	if res == nil || res.Err == nil {
		t.Fatal("read of lost block should fail")
	}
	if c.Metrics().ReadsFailed != 1 {
		t.Fatalf("ReadsFailed = %d", c.Metrics().ReadsFailed)
	}
}

func TestReplicationMonitorHeals(t *testing.T) {
	e, c := newCluster(t)
	f, _ := c.CreateFile("/a", 64*mb, 3, 0)
	stop := c.StartReplicationMonitor(5 * time.Second)
	defer stop()
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
		t.Fatal("still under-replicated after monitor ran")
	}
}

func TestStandbyDoesNotServeReads(t *testing.T) {
	e, c := newCluster(t)
	f, _ := c.CreateFile("/a", 64*mb, 2, 0)
	// Move one replica's node to standby; reads must come from the other.
	reps := c.Replicas(f.Blocks[0])
	second := reps[1]
	c.Datanode(second).State = StateStandby // direct for test setup
	var res *ReadResult
	c.ReadFile(topology.NodeID(second), "/a", func(r *ReadResult) { res = r })
	e.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.NodeLocal != 0 {
		t.Fatal("standby node served a read")
	}
}

func TestCommissionAndEnergyAccounting(t *testing.T) {
	e, c := newCluster(t, 17)
	d := c.Datanode(17)
	if d.State != StateStandby {
		t.Fatal("node 17 should start standby")
	}
	e.Schedule(10*time.Second, func() { c.Commission(17) })
	e.Schedule(25*time.Second, func() { c.ToStandby(17) })
	e.Schedule(30*time.Second, func() {})
	e.Run()
	if d.ActiveTime != 15*time.Second {
		t.Fatalf("ActiveTime = %v, want 15s", d.ActiveTime)
	}
	if d.State != StateStandby {
		t.Fatalf("state = %v", d.State)
	}
	// Commission of a non-standby node is a no-op.
	c.Commission(17)
	c.Commission(0)
}

func TestDeleteFileFreesSpace(t *testing.T) {
	_, c := newCluster(t)
	c.CreateFile("/a", 128*mb, 3, 0)
	if err := c.DeleteFile("/a"); err != nil {
		t.Fatal(err)
	}
	if c.TotalUsed() != 0 {
		t.Fatalf("TotalUsed = %v after delete", c.TotalUsed())
	}
	if err := c.DeleteFile("/a"); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestEncodeFileReducesStorage(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/cold", 640*mb, 3, 0) // 10 blocks
	before := c.TotalUsed()
	var err error
	c.EncodeFile("/cold", 10, 4, func(e2 error) { err = e2 })
	e.Run()
	if err != nil {
		t.Fatal(err)
	}
	f := c.File("/cold")
	if !f.Encoded || len(f.Parity) != 4 {
		t.Fatalf("encoded=%v parity=%d", f.Encoded, len(f.Parity))
	}
	after := c.TotalUsed()
	// 3x640 MB = 1920 before; after: 640 + 4*64 = 896.
	if after >= before {
		t.Fatalf("storage did not shrink: %v -> %v MB", before/mb, after/mb)
	}
	want := 640*mb + 4*64*mb
	if after != want {
		t.Fatalf("after = %v MB, want %v", after/mb, want/mb)
	}
	for _, bid := range f.Blocks {
		if len(c.Replicas(bid)) != 1 {
			t.Fatalf("data block %d has %d replicas, want 1", bid, len(c.Replicas(bid)))
		}
	}
	if c.Metrics().FilesEncoded != 1 {
		t.Fatal("FilesEncoded counter")
	}
}

func TestEncodeValidation(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/a", 64*mb, 3, 0)
	var errs []error
	c.EncodeFile("/nope", 10, 4, func(err error) { errs = append(errs, err) })
	c.EncodeFile("/a", 0, 4, func(err error) { errs = append(errs, err) })
	e.Run()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	var err1, err2 error
	c.EncodeFile("/a", 10, 4, func(err error) { err1 = err })
	e.Run()
	c.EncodeFile("/a", 10, 4, func(err error) { err2 = err })
	e.Run()
	if err1 != nil {
		t.Fatal(err1)
	}
	if err2 == nil {
		t.Fatal("double encode accepted")
	}
}

func TestReconstructLostBlock(t *testing.T) {
	e, c := newCluster(t)
	f, _ := c.CreateFile("/cold", 320*mb, 3, 0) // 5 blocks
	var err error
	c.EncodeFile("/cold", 5, 2, func(e2 error) { err = e2 })
	e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Kill the single replica of block 0.
	bid := f.Blocks[0]
	c.Kill(c.Replicas(bid)[0])
	if len(c.Replicas(bid)) != 0 {
		t.Fatal("replica should be lost")
	}
	c.ReconstructBlock(bid, func(e2 error) { err = e2 })
	e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Replicas(bid)) != 1 {
		t.Fatalf("block not rebuilt: %v", c.Replicas(bid))
	}
	if c.Metrics().BlocksRebuilt != 1 {
		t.Fatal("BlocksRebuilt counter")
	}
}

func TestReconstructNeedsKSurvivors(t *testing.T) {
	e, c := newCluster(t)
	f, _ := c.CreateFile("/cold", 192*mb, 3, 0) // 3 blocks
	var err error
	c.EncodeFile("/cold", 3, 1, func(e2 error) { err = e2 })
	e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Lose two stripe members: only 2 of 4 remain, k=3 -> unrecoverable.
	c.Kill(c.Replicas(f.Blocks[0])[0])
	var gone []DatanodeID
	for _, bid := range f.Blocks[1:] {
		if reps := c.Replicas(bid); len(reps) > 0 {
			gone = append(gone, reps[0])
		}
	}
	if len(gone) > 0 {
		c.Kill(gone[0])
	}
	c.ReconstructBlock(f.Blocks[0], func(e2 error) { err = e2 })
	e.Run()
	if err == nil && len(c.Replicas(f.Blocks[1]))+len(c.Replicas(f.Blocks[0])) < 2 {
		t.Fatal("reconstruction should fail with too few survivors")
	}
}

func TestDecodeFileRestoresReplication(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/cold", 320*mb, 3, 0)
	var err error
	c.EncodeFile("/cold", 5, 2, func(e2 error) { err = e2 })
	e.Run()
	if err != nil {
		t.Fatal(err)
	}
	c.DecodeFile("/cold", 3, func(e2 error) { err = e2 })
	e.Run()
	if err != nil {
		t.Fatal(err)
	}
	f := c.File("/cold")
	if f.Encoded || len(f.Parity) != 0 {
		t.Fatalf("decode left state: encoded=%v parity=%d", f.Encoded, len(f.Parity))
	}
	if got := c.ReplicationOf("/cold"); got != 3 {
		t.Fatalf("replication = %d", got)
	}
}

func TestAuditTrail(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/a", 64*mb, 3, 0)
	c.ReadFile(1, "/a", nil)
	c.SetReplication("/a", 4, WholeAtOnce, nil)
	e.Run()
	c.DeleteFile("/a")
	var cmds []string
	for _, r := range c.Audit().Records() {
		cmds = append(cmds, string(r.Cmd))
	}
	want := "create open setReplication delete"
	if strings.Join(cmds, " ") != want {
		t.Fatalf("audit = %v, want %q", cmds, want)
	}
}

func TestOnBlockReadEvents(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/a", 128*mb, 3, 0)
	var events []BlockReadEvent
	c.OnBlockRead(func(ev BlockReadEvent) { events = append(events, ev) })
	c.ReadFile(2, "/a", nil)
	e.Run()
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2 (one per block)", len(events))
	}
	if events[0].Path != "/a" || events[0].Client != 2 {
		t.Fatalf("event = %+v", events[0])
	}
}

func TestRestartBringsNodeBackEmpty(t *testing.T) {
	_, c := newCluster(t)
	f, _ := c.CreateFile("/a", 64*mb, 3, 0)
	victim := c.Replicas(f.Blocks[0])[0]
	c.Kill(victim)
	c.Restart(victim)
	d := c.Datanode(victim)
	if d.State != StateActive || d.NumBlocks() != 0 || d.Used != 0 {
		t.Fatalf("restarted node state: %+v", d)
	}
}

func TestNodeStateStrings(t *testing.T) {
	for s, want := range map[NodeState]string{
		StateActive: "active", StateStandby: "standby", StateDown: "down",
		NodeState(9): "unknown",
	} {
		if s.String() != want {
			t.Fatalf("%d -> %q", s, s.String())
		}
	}
	if NodeLocal.String() != "node-local" || RackLocal.String() != "rack-local" ||
		Remote.String() != "remote" {
		t.Fatal("locality strings")
	}
	if WholeAtOnce.String() != "whole" || OneByOne.String() != "one-by-one" {
		t.Fatal("mode strings")
	}
}

// Invariant: after arbitrary grow/shrink sequences, every block's replica
// list is consistent with datanode block sets and usage accounting.
func TestReplicaInvariants(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/a", 256*mb, 2, 0)
	seq := []int{5, 1, 3, 2, 6, 1}
	var step func(i int)
	step = func(i int) {
		if i >= len(seq) {
			return
		}
		c.SetReplication("/a", seq[i], WholeAtOnce, func(err error) {
			if err != nil {
				t.Errorf("step %d: %v", i, err)
			}
			step(i + 1)
		})
	}
	step(0)
	e.Run()
	checkConsistency(t, c)
	if got := c.ReplicationOf("/a"); got != 1 {
		t.Fatalf("final replication = %d", got)
	}
}

func checkConsistency(t *testing.T, c *Cluster) {
	t.Helper()
	for _, msg := range c.ConsistencyErrors() {
		t.Errorf("consistency: %s", msg)
	}
	// Every replica entry matches the datanode's block set and no
	// duplicates exist.
	for i, reps := range c.replicas {
		bid := BlockID(i)
		seen := map[DatanodeID]bool{}
		for _, r := range reps {
			if seen[r] {
				t.Fatalf("block %d has duplicate replica on %d", bid, r)
			}
			seen[r] = true
			if !c.Datanode(r).HasBlock(bid) {
				t.Fatalf("block %d replica on %d not in node's set", bid, r)
			}
		}
	}
	for _, d := range c.Datanodes() {
		var used float64
		d.blocks.Each(func(bid BlockID) {
			b, _ := c.Block(bid)
			used += b.Size
			found := false
			for _, r := range c.replicas[bid] {
				if r == d.ID {
					found = true
				}
			}
			if !found {
				t.Fatalf("node %d holds unregistered block %d", d.ID, bid)
			}
		})
		if diff := used - d.Used; diff > 1 || diff < -1 {
			t.Fatalf("node %d usage %v != computed %v", d.ID, d.Used, used)
		}
	}
}

func TestRenameMovesNamespaceOnly(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/old", 128*mb, 3, 0)
	f := c.File("/old")
	replicasBefore := append([]DatanodeID(nil), c.Replicas(f.Blocks[0])...)
	if err := c.Rename("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if c.File("/old") != nil || c.File("/new") == nil {
		t.Fatal("namespace not updated")
	}
	if b, _ := c.Block(f.Blocks[0]); c.File("/new").Path != "/new" || b.File != "/new" {
		t.Fatal("inode/block paths not updated")
	}
	for i, r := range c.Replicas(f.Blocks[0]) {
		if r != replicasBefore[i] {
			t.Fatal("rename moved replicas")
		}
	}
	var res *ReadResult
	c.ReadFile(2, "/new", func(r *ReadResult) { res = r })
	e.Run()
	if res == nil || res.Err != nil {
		t.Fatalf("read after rename: %+v", res)
	}
	// Audit trail carries both paths.
	found := false
	for _, rec := range c.Audit().Records() {
		if rec.Cmd == "rename" && rec.Src == "/old" && rec.Dst == "/new" {
			found = true
		}
	}
	if !found {
		t.Fatal("rename not audited")
	}
}

func TestRenameErrors(t *testing.T) {
	_, c := newCluster(t)
	c.CreateFile("/a", 64*mb, 3, 0)
	c.CreateFile("/b", 64*mb, 3, 0)
	if err := c.Rename("/nope", "/x"); err == nil {
		t.Fatal("renamed a missing file")
	}
	if err := c.Rename("/a", "/b"); err == nil {
		t.Fatal("rename clobbered an existing file")
	}
}
