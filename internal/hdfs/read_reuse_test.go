package hdfs

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// pin replaces block id's replicas with exactly nodes.
func pin(c *Cluster, id BlockID, nodes ...DatanodeID) {
	b := c.blocks[id]
	for _, dn := range slices.Clone(c.Replicas(id)) {
		c.detachReplica(b, dn)
	}
	for _, dn := range nodes {
		c.attachReplica(b, dn)
	}
}

// TestReadRecordSurvivesEveryExit drives one six-block read through every
// way a block attempt can end short — a checksum failure, the serving node
// crashing mid-flow, a rack partition cutting the flow, a queued admission
// refused when its node leaves service — while a second read exhausts its
// retries on an all-corrupt block. The walk reuses one block-read record
// for all of it, so a record left registered anywhere, or reused while
// still live, shows up as a wrong source, a lost byte or a leaked session.
//
// Racks hold nodes 0-5, 6-11 and 12-17; the surviving read's client is
// node 0, the failing one's node 17.
func TestReadRecordSurvivesEveryExit(t *testing.T) {
	e, c := newCluster(t)
	a, err := c.CreateFile("/a", 6*64*mb, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	pin(c, a.Blocks[0], 1, 6)  // rack-local 1 is corrupt: checksum, then 6
	pin(c, a.Blocks[1], 2, 7)  // rack-local 2 crashes mid-flow, then 7
	pin(c, a.Blocks[2], 8, 12) // rack 1 is cut off mid-flow, then 12
	pin(c, a.Blocks[3], 3, 9)  // queued on 3, which goes standby, then 9
	pin(c, a.Blocks[4], 0, 13) // node-local
	pin(c, a.Blocks[5], 5, 14) // rack-local
	if err := c.CorruptReplica(a.Blocks[0], 1); err != nil {
		t.Fatal(err)
	}
	c.Datanode(3).MaxSessions = 0 // every admission on node 3 queues

	f, err := c.CreateFile("/f", 2*64*mb, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	pin(c, f.Blocks[0], 15, 16)
	pin(c, f.Blocks[1], 17, 13, 14)
	for _, dn := range c.Replicas(f.Blocks[1]) {
		if err := c.CorruptReplica(f.Blocks[1], dn); err != nil {
			t.Fatal(err)
		}
	}

	var served []DatanodeID // sources of the surviving read, in admission order
	c.OnBlockRead(func(ev BlockReadEvent) {
		if ev.Client != 0 {
			return
		}
		served = append(served, ev.Datanode)
		switch {
		case ev.Block == a.Blocks[1] && ev.Datanode == 2:
			e.Schedule(100*time.Millisecond, func() { c.Kill(2) })
		case ev.Block == a.Blocks[2] && ev.Datanode == 8:
			e.Schedule(100*time.Millisecond, func() { c.PartitionRack(1); c.HealRack(1) })
		}
	})
	var watch func()
	watch = func() {
		if c.Datanode(3).QueueLen() > 0 {
			c.ToStandby(3)
			return
		}
		e.Schedule(10*time.Millisecond, watch)
	}
	watch()

	var okRes, failRes *ReadResult
	c.ReadFile(0, "/a", func(r *ReadResult) { okRes = r })
	c.ReadFile(17, "/f", func(r *ReadResult) { failRes = r })
	e.RunUntil(time.Hour)

	if okRes == nil || okRes.Err != nil || okRes.Bytes != 6*64*mb ||
		okRes.NodeLocal != 1 || okRes.RackLocal != 1 || okRes.Remote != 4 {
		t.Fatalf("surviving read = %+v, want %v bytes, 1 node-local, 1 rack-local, 4 remote", okRes, 6*64*mb)
	}
	if want := []DatanodeID{1, 6, 2, 7, 8, 12, 9, 0, 5}; !slices.Equal(served, want) {
		t.Errorf("surviving read served from %v, want %v", served, want)
	}
	if failRes == nil || failRes.Err == nil || !strings.Contains(failRes.Err.Error(), "failed after 3 attempts") ||
		failRes.Bytes != 64*mb {
		t.Errorf("exhausted read = %+v, want 64 MB then \"failed after 3 attempts\"", failRes)
	}
	if m := c.Metrics(); m.ChecksumFailures != 4 || m.ReadsCompleted != 1 || m.ReadsFailed != 1 {
		t.Errorf("checksum failures %d, completed %d, failed %d; want 4/1/1",
			m.ChecksumFailures, m.ReadsCompleted, m.ReadsFailed)
	}
	for _, d := range c.Datanodes() {
		if d.Sessions() != 0 || d.QueueLen() != 0 || len(d.activeFlows) != 0 {
			t.Errorf("%s at quiescence: %d sessions, %d queued, %d flows", d.Name, d.Sessions(), d.QueueLen(), len(d.activeFlows))
		}
	}
}
