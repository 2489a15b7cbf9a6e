package hdfs

import (
	"testing"

	"erms/internal/auditlog"
	"erms/internal/topology"
)

// TestReadRangeBlockMapping: a ranged read touches exactly the blocks that
// overlap the range, streams only the overlapping bytes, and delivers the
// clamped range length.
func TestReadRangeBlockMapping(t *testing.T) {
	e, c := newCluster(t)
	f, err := c.CreateFile("/data/a", 200*mb, 3, 0) // blocks 64+64+64+8
	if err != nil {
		t.Fatal(err)
	}
	var events []BlockReadEvent
	c.OnBlockRead(func(ev BlockReadEvent) { events = append(events, ev) })
	var res *ReadResult
	// [32 MB, 96 MB): the back half of block 0 and the front half of block 1.
	c.ReadRange(1, "/data/a", 32*mb, 64*mb, func(r *ReadResult) { res = r })
	e.Run()
	if res == nil || res.Err != nil {
		t.Fatalf("read did not complete cleanly: %+v", res)
	}
	if res.Bytes != 64*mb {
		t.Fatalf("bytes = %v MB, want 64", res.Bytes/mb)
	}
	if len(events) != 2 {
		t.Fatalf("block reads = %d, want 2", len(events))
	}
	if events[0].Block != f.Blocks[0] || events[1].Block != f.Blocks[1] {
		t.Fatalf("wrong blocks read: %+v", events)
	}
	if events[0].Bytes != 32*mb || events[1].Bytes != 32*mb {
		t.Fatalf("partial byte counts wrong: %v, %v", events[0].Bytes/mb, events[1].Bytes/mb)
	}
	m := c.Metrics()
	if m.RangedReads != 1 || m.PartialBlockReads != 2 {
		t.Fatalf("ranged=%d partial=%d, want 1/2", m.RangedReads, m.PartialBlockReads)
	}
	if m.RangedBytesRead != 64*mb {
		t.Fatalf("RangedBytesRead = %v MB, want 64", m.RangedBytesRead/mb)
	}
	if m.ReadsStarted != 1 || m.ReadsCompleted != 1 {
		t.Fatalf("reads started/completed = %d/%d, want 1/1", m.ReadsStarted, m.ReadsCompleted)
	}
	if got := m.NodeLocalReads + m.RackLocalReads + m.RemoteReads; got != m.BlockReads {
		t.Fatalf("locality counters (%d) != BlockReads (%d)", got, m.BlockReads)
	}
}

// TestReadRangeClamping: length past EOF clamps, length <= 0 means to-end,
// a whole-block span is not a partial read, and bad offsets fail.
func TestReadRangeClamping(t *testing.T) {
	e, c := newCluster(t)
	if _, err := c.CreateFile("/data/a", 200*mb, 3, 0); err != nil {
		t.Fatal(err)
	}
	var res *ReadResult
	c.ReadRange(1, "/data/a", 192*mb, 64*mb, func(r *ReadResult) { res = r })
	e.Run()
	if res.Err != nil || res.Bytes != 8*mb {
		t.Fatalf("clamped read: bytes=%v MB err=%v, want 8/nil", res.Bytes/mb, res.Err)
	}
	if res.Length != 8*mb {
		t.Fatalf("clamped Length = %v MB, want 8", res.Length/mb)
	}

	res = nil
	c.ReadRange(1, "/data/a", 64*mb, 0, func(r *ReadResult) { res = r })
	e.Run()
	if res.Err != nil || res.Bytes != 136*mb {
		t.Fatalf("to-end read: bytes=%v MB err=%v, want 136/nil", res.Bytes/mb, res.Err)
	}

	// A range exactly covering block 1 streams it whole: no partial count.
	before := c.Metrics().PartialBlockReads
	res = nil
	c.ReadRange(1, "/data/a", 64*mb, 64*mb, func(r *ReadResult) { res = r })
	e.Run()
	if res.Err != nil || res.Bytes != 64*mb {
		t.Fatalf("aligned read: %+v", res)
	}
	if got := c.Metrics().PartialBlockReads; got != before {
		t.Fatalf("aligned whole-block span counted as partial: %d -> %d", before, got)
	}

	res = nil
	c.ReadRange(1, "/data/a", 200*mb, mb, func(r *ReadResult) { res = r })
	e.Run()
	if res == nil || res.Err == nil {
		t.Fatal("offset at EOF should fail")
	}
	res = nil
	c.ReadRange(1, "/nope", 0, mb, func(r *ReadResult) { res = r })
	e.Run()
	if res == nil || res.Err == nil {
		t.Fatal("missing file should fail")
	}
}

// TestReadRangeAuditsPread: ranged reads log cmd=pread, never cmd=open —
// the property that keeps formula (1) blind to them.
func TestReadRangeAuditsPread(t *testing.T) {
	e, c := newCluster(t)
	if _, err := c.CreateFile("/data/a", 200*mb, 3, 0); err != nil {
		t.Fatal(err)
	}
	base := len(c.Audit().Records())
	c.ReadRange(1, "/data/a", 0, 16*mb, nil)
	c.ReadRange(ExternalClient, "/nope", 0, mb, nil)
	e.Run()
	recs := c.Audit().Records()[base:]
	if len(recs) != 2 {
		t.Fatalf("audit records = %d, want 2", len(recs))
	}
	if recs[0].Cmd != auditlog.CmdPread || !recs[0].Allowed || recs[0].Src != "/data/a" {
		t.Fatalf("good pread audited wrong: %+v", recs[0])
	}
	if recs[1].Cmd != auditlog.CmdPread || recs[1].Allowed {
		t.Fatalf("failed pread audited wrong: %+v", recs[1])
	}
	for _, r := range recs {
		if r.Cmd == auditlog.CmdOpen {
			t.Fatal("ranged read must not audit as open")
		}
	}
}

// TestReadRangePerBlockCounts: the per-block read tally counts every block
// read — whole-file and ranged alike — and survives file deletion cleanly.
func TestReadRangePerBlockCounts(t *testing.T) {
	e, c := newCluster(t)
	f, err := c.CreateFile("/data/a", 200*mb, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.ReadRange(1, "/data/a", 0, 16*mb, nil)
	c.ReadRange(2, "/data/a", 0, 16*mb, nil)
	c.ReadFile(3, "/data/a", nil)
	e.Run()
	if got := c.BlockReadCount(f.Blocks[0]); got != 3 {
		t.Fatalf("block 0 reads = %d, want 3 (2 preads + 1 full)", got)
	}
	if got := c.BlockReadCount(f.Blocks[3]); got != 1 {
		t.Fatalf("block 3 reads = %d, want 1 (full read only)", got)
	}
	var sum int64
	for _, bid := range f.Blocks {
		sum += c.BlockReadCount(bid)
	}
	if sum != 6 {
		t.Fatalf("file block reads = %d, want 6", sum)
	}
	if err := c.DeleteFile("/data/a"); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if got := c.BlockReadCount(f.Blocks[0]); got != 0 {
		t.Fatalf("deleted block still has read count %d", got)
	}
}

// TestReadRangeFailover: a ranged read whose serving replica dies mid-flow
// retries on another replica and still completes with the right bytes.
func TestReadRangeFailover(t *testing.T) {
	e, c := newCluster(t)
	f, err := c.CreateFile("/data/a", 64*mb, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	reps := c.Replicas(f.Blocks[0])
	var res *ReadResult
	// Client far from the writer so the chosen replica is predictable
	// enough; kill whichever node serves first.
	var served DatanodeID = -1
	c.OnBlockRead(func(ev BlockReadEvent) {
		if served < 0 {
			served = ev.Datanode
		}
	})
	c.ReadRange(topology.NodeID(reps[0]), "/data/a", 16*mb, 16*mb, func(r *ReadResult) { res = r })
	e.RunUntil(e.Now() + 1)
	if served < 0 {
		t.Fatal("no block read started")
	}
	c.Kill(served)
	e.Run()
	if res == nil || res.Err != nil {
		t.Fatalf("ranged read did not survive replica death: %+v", res)
	}
	if res.Bytes != 16*mb {
		t.Fatalf("bytes = %v MB, want 16", res.Bytes/mb)
	}
}
