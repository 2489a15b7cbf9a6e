package hdfs

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// pin replaces block id's replicas with exactly nodes.
func pin(c *Cluster, id BlockID, nodes ...DatanodeID) {
	for _, dn := range slices.Clone(c.Replicas(id)) {
		c.detachReplica(id, dn)
	}
	for _, dn := range nodes {
		c.attachReplica(id, dn)
	}
}

// TestReadRecordSurvivesEveryExit drives one six-block read through every
// way a block attempt can end short — a checksum failure, the serving node
// crashing mid-flow, a rack partition cutting the flow, a queued admission
// refused when its node leaves service — while a second read exhausts its
// retries on an all-corrupt block. The walk reuses one block-read record
// for all of it, so a record left registered anywhere, or reused while
// still live, shows up as a wrong source, a lost byte or a leaked session.
// The scenario then runs again on the same cluster: both records have gone
// back to the free list, and the second round's reads take them — recycled
// after every exit — and must serve exactly as the first round's did.
//
// Racks hold nodes 0-5, 6-11 and 12-17; the surviving read's client is
// node 0, the failing one's node 17.
func TestReadRecordSurvivesEveryExit(t *testing.T) {
	e, c := newCluster(t)
	var recycled []*blockRead
	for round := 1; round <= 2; round++ {
		a, err := c.CreateFile(fmt.Sprintf("/a%d", round), 6*64*mb, 2, -1)
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

		f, err := c.CreateFile(fmt.Sprintf("/f%d", round), 2*64*mb, 3, -1)
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
		c.onBlockRead = nil
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
		c.ReadFile(0, a.Path, func(r *ReadResult) { okRes = r })
		c.ReadFile(17, f.Path, func(r *ReadResult) { failRes = r })
		e.RunUntil(time.Duration(round) * time.Hour)

		if okRes == nil || okRes.Err != nil || okRes.Bytes != 6*64*mb ||
			okRes.NodeLocal != 1 || okRes.RackLocal != 1 || okRes.Remote != 4 {
			t.Fatalf("round %d: surviving read = %+v, want %v bytes, 1 node-local, 1 rack-local, 4 remote", round, okRes, 6*64*mb)
		}
		if want := []DatanodeID{1, 6, 2, 7, 8, 12, 9, 0, 5}; !slices.Equal(served, want) {
			t.Errorf("round %d: surviving read served from %v, want %v", round, served, want)
		}
		if failRes == nil || failRes.Err == nil || !strings.Contains(failRes.Err.Error(), "failed after 3 attempts") ||
			failRes.Bytes != 64*mb {
			t.Errorf("round %d: exhausted read = %+v, want 64 MB then \"failed after 3 attempts\"", round, failRes)
		}
		if m := c.Metrics(); m.ChecksumFailures != 4*round || m.ReadsCompleted != round || m.ReadsFailed != round {
			t.Errorf("round %d: checksum failures %d, completed %d, failed %d; want %d/%d/%d",
				round, m.ChecksumFailures, m.ReadsCompleted, m.ReadsFailed, 4*round, round, round)
		}
		for _, d := range c.Datanodes() {
			if d.Sessions() != 0 || d.QueueLen() != 0 || len(d.activeFlows) != 0 {
				t.Errorf("round %d: %s at quiescence: %d sessions, %d queued, %d flows", round, d.Name, d.Sessions(), d.QueueLen(), len(d.activeFlows))
			}
		}
		if len(c.freeReads) != 2 {
			t.Fatalf("round %d: %d records on the free list, want both reads' 2", round, len(c.freeReads))
		}
		if round == 1 {
			recycled = slices.Clone(c.freeReads)
			c.Restart(2)    // back, empty, for the next crash
			c.Commission(3) // back in service, still queuing everything
		} else if !slices.Equal(c.freeReads, recycled) {
			t.Errorf("round 2 read through records %p, want round 1's recycled %p", c.freeReads, recycled)
		}
	}
}

// TestKillDuringSameInstantCompletion: two node-local reads on node 1 land
// at the same instant, and the first one's callback kills the node. The
// second flow has landed too, its completion callback still to run in the
// same batch, so the kill must leave it to that callback: aborting it as
// well would retry the read elsewhere and then complete it a second time.
func TestKillDuringSameInstantCompletion(t *testing.T) {
	e, c := newCluster(t)
	x, err := c.CreateFile("/x", 64*mb, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	y, err := c.CreateFile("/y", 64*mb, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	pin(c, x.Blocks[0], 1)
	pin(c, y.Blocks[0], 1, 7) // 7 is where an abort would retry
	var xRes, yRes []*ReadResult
	c.ReadFile(1, "/x", func(r *ReadResult) {
		xRes = append(xRes, r)
		c.Kill(1)
	})
	c.ReadFile(1, "/y", func(r *ReadResult) { yRes = append(yRes, r) })
	e.Run()
	if len(xRes) != 1 || len(yRes) != 1 {
		t.Fatalf("%d and %d results, want one each", len(xRes), len(yRes))
	}
	if r := yRes[0]; r.Err != nil || r.NodeLocal != 1 || r.Bytes != 64*mb || r.End != xRes[0].End {
		t.Fatalf("second read = %+v, want one node-local block landing with the first at %v", r, xRes[0].End)
	}
	for _, d := range c.Datanodes() {
		if d.Sessions() != 0 || len(d.activeFlows) != 0 {
			t.Errorf("%s at quiescence: %d sessions, %d flows", d.Name, d.Sessions(), len(d.activeFlows))
		}
	}
	if n := c.Fabric().ActiveFlows(); n != 0 || len(c.freeReads) != 2 {
		t.Errorf("%d flows still in the fabric, %d records on the free list; want 0 and 2", n, len(c.freeReads))
	}
}
