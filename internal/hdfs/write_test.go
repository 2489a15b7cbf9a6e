package hdfs

import (
	"testing"
	"time"

	"erms/internal/sim"
	"erms/internal/topology"
)

func TestWriteFileCreatesReplicatedBlocks(t *testing.T) {
	e, c := newCluster(t)
	var res *WriteResult
	c.WriteFile(0, "/w", 192*mb, 3, func(r *WriteResult) { res = r })
	e.Run()
	if res == nil || res.Err != nil {
		t.Fatalf("write: %+v", res)
	}
	f := c.File("/w")
	if f == nil || len(f.Blocks) != 3 {
		t.Fatalf("blocks = %v", f)
	}
	for _, bid := range f.Blocks {
		if len(c.Replicas(bid)) != 3 {
			t.Fatalf("block %d has %d replicas", bid, len(c.Replicas(bid)))
		}
	}
	if c.TotalUsed() != 3*192*mb {
		t.Fatalf("used = %v MB", c.TotalUsed()/mb)
	}
	if res.Bytes != 192*mb || res.ThroughputMBps() <= 0 {
		t.Fatalf("result: %+v", res)
	}
	checkConsistency(t, c)
}

func TestWriteSlowerThanLocalRead(t *testing.T) {
	// A pipelined triplicated write touches three disks and crosses racks,
	// so it cannot beat a node-local single-replica read of the same size.
	e, c := newCluster(t)
	var wr *WriteResult
	c.WriteFile(0, "/w", 128*mb, 3, func(r *WriteResult) { wr = r })
	e.Run()
	c.CreateFile("/r", 128*mb, 1, 5)
	var rd *ReadResult
	c.ReadFile(5, "/r", func(r *ReadResult) { rd = r })
	e.Run()
	if wr.Duration() < rd.Duration() {
		t.Fatalf("write %v faster than local read %v", wr.Duration(), rd.Duration())
	}
}

func TestWriteValidation(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/exists", 64*mb, 3, 0)
	var errs []error
	c.WriteFile(0, "/exists", 64*mb, 3, func(r *WriteResult) { errs = append(errs, r.Err) })
	c.WriteFile(0, "/zero", 0, 3, func(r *WriteResult) { errs = append(errs, r.Err) })
	e.Run()
	if len(errs) != 2 || errs[0] == nil || errs[1] == nil {
		t.Fatalf("errs = %v", errs)
	}
}

func TestExternalWriter(t *testing.T) {
	e, c := newCluster(t)
	var res *WriteResult
	c.WriteFile(ExternalClient, "/up", 64*mb, 3, func(r *WriteResult) { res = r })
	e.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := c.ReplicationOf("/up"); got != 3 {
		t.Fatalf("replication = %d", got)
	}
}

func TestWriteAuditsCreate(t *testing.T) {
	e, c := newCluster(t)
	c.WriteFile(1, "/w", 64*mb, 2, nil)
	e.Run()
	recs := c.Audit().Records()
	if len(recs) == 0 || recs[0].Cmd != "create" || recs[0].Src != "/w" {
		t.Fatalf("audit = %v", recs)
	}
}

func TestConcurrentWritesContend(t *testing.T) {
	// Two writers into the same pipeline head share its disk: slower than
	// one writer alone.
	solo := func() time.Duration {
		e := sim.NewEngine()
		topo := topology.New(topology.Config{})
		c := New(e, Config{Topology: topo})
		var d time.Duration
		c.WriteFile(0, "/a", 256*mb, 3, func(r *WriteResult) { d = r.Duration() })
		e.Run()
		return d
	}()
	e := sim.NewEngine()
	topo := topology.New(topology.Config{})
	c := New(e, Config{Topology: topo})
	var d1 time.Duration
	c.WriteFile(0, "/a", 256*mb, 3, func(r *WriteResult) { d1 = r.Duration() })
	c.WriteFile(0, "/b", 256*mb, 3, nil)
	e.Run()
	if d1 <= solo {
		t.Fatalf("contended write %v not slower than solo %v", d1, solo)
	}
}

func TestPipelinePathHasNoDuplicateLinks(t *testing.T) {
	_, c := newCluster(t)
	for _, client := range []topology.NodeID{ExternalClient, 0, 7} {
		targets := []DatanodeID{0, 6, 7}
		path := c.pipelinePath(client, targets)
		seen := map[topology.LinkID]bool{}
		for _, l := range path {
			if seen[l] {
				t.Fatalf("duplicate link %d in pipeline path for client %d", l, client)
			}
			seen[l] = true
		}
		if len(path) == 0 {
			t.Fatal("empty pipeline path")
		}
	}
}
