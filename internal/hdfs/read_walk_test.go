package hdfs

import (
	"slices"
	"strings"
	"testing"
	"time"

	"erms/internal/auditlog"
	"erms/internal/sim"
	"erms/internal/topology"
)

// walkOutcome is everything one read leaves behind that a caller, the
// judge's CEP feed or /metrics can observe.
type walkOutcome struct {
	res     ReadResult
	events  []BlockReadEvent
	metrics Metrics
	audit   []auditlog.Record
}

func runRead(t *testing.T, size float64, issue func(c *Cluster, done func(*ReadResult))) walkOutcome {
	t.Helper()
	e, c := newCluster(t)
	if _, err := c.CreateFile("/data/a", size, 3, 0); err != nil {
		t.Fatal(err)
	}
	var out walkOutcome
	c.OnBlockRead(func(ev BlockReadEvent) { out.events = append(out.events, ev) })
	var res *ReadResult
	issue(c, func(r *ReadResult) { res = r })
	e.Run()
	if res == nil || res.Err != nil {
		t.Fatalf("read did not complete cleanly: %+v", res)
	}
	out.res, out.metrics = *res, c.Metrics()
	for _, r := range c.Audit().Records() {
		if r.Cmd != auditlog.CmdCreate {
			out.audit = append(out.audit, r)
		}
	}
	return out
}

// TestWholeFileIsFullRange: ReadFile and ReadRange(0, size) run the same
// block walk, so they agree on bytes, duration, locality and the block-read
// stream, and differ only in the audit command and the ranged counters.
// The fractional size makes block positions inexact in floating point: a
// block the range covers must still stream whole, never as a slice an ulp
// short.
func TestWholeFileIsFullRange(t *testing.T) {
	for _, size := range []float64{200 * mb, 150.7 * mb, 64 * mb} {
		whole := runRead(t, size, func(c *Cluster, done func(*ReadResult)) { c.ReadFile(5, "/data/a", done) })
		ranged := runRead(t, size, func(c *Cluster, done func(*ReadResult)) { c.ReadRange(5, "/data/a", 0, size, done) })

		w, r := whole.res, ranged.res
		if w.Bytes != size || r.Bytes != w.Bytes || r.Duration() != w.Duration() ||
			r.NodeLocal != w.NodeLocal || r.RackLocal != w.RackLocal || r.Remote != w.Remote {
			t.Errorf("size %v: results differ\nwhole  %+v\nranged %+v", size, w, r)
		}
		if w.Length != 0 || r.Length != size {
			t.Errorf("size %v: Length whole=%v ranged=%v, want 0 and %v", size, w.Length, r.Length, size)
		}
		if len(whole.events) != len(ranged.events) {
			t.Fatalf("size %v: %d vs %d block reads", size, len(whole.events), len(ranged.events))
		}
		for i := range whole.events {
			if whole.events[i] != ranged.events[i] {
				t.Errorf("size %v: block read %d differs: %+v vs %+v", size, i, whole.events[i], ranged.events[i])
			}
		}
		if len(whole.audit) != 1 || whole.audit[0].Cmd != auditlog.CmdOpen ||
			len(ranged.audit) != 1 || ranged.audit[0].Cmd != auditlog.CmdPread {
			t.Errorf("size %v: audit whole=%+v ranged=%+v, want one open and one pread", size, whole.audit, ranged.audit)
		}
		wm, rm := whole.metrics, ranged.metrics
		if wm.RangedReads != 0 || wm.RangedBytesRead != 0 || rm.RangedReads != 1 || rm.RangedBytesRead != size {
			t.Errorf("size %v: ranged counters whole=%d/%v ranged=%d/%v", size,
				wm.RangedReads, wm.RangedBytesRead, rm.RangedReads, rm.RangedBytesRead)
		}
		if wm.PartialBlockReads != 0 || rm.PartialBlockReads != 0 {
			t.Errorf("size %v: a fully covered block streamed as a slice: partial whole=%d ranged=%d",
				size, wm.PartialBlockReads, rm.PartialBlockReads)
		}
		rm.RangedReads, rm.RangedBytesRead = 0, 0
		if wm != rm {
			t.Errorf("size %v: metrics differ beyond the ranged counters\nwhole  %+v\nranged %+v", size, wm, rm)
		}
	}
}

// TestReadFileAtVisitsEveryBlockOnce: a rotated start wraps around and
// still reads each block exactly once, whole, in rotated order.
func TestReadFileAtVisitsEveryBlockOnce(t *testing.T) {
	e, c := newCluster(t)
	f, err := c.CreateFile("/data/a", 200*mb, 3, 0) // blocks 64+64+64+8
	if err != nil {
		t.Fatal(err)
	}
	var got []BlockID
	c.OnBlockRead(func(ev BlockReadEvent) { got = append(got, ev.Block) })
	var res *ReadResult
	c.ReadFileAt(5, "/data/a", 6, func(r *ReadResult) { res = r }) // 6 mod 4 = block 2 first
	e.Run()
	want := []BlockID{f.Blocks[2], f.Blocks[3], f.Blocks[0], f.Blocks[1]}
	if res == nil || res.Err != nil || res.Bytes != 200*mb || len(got) != len(want) {
		t.Fatalf("rotated read: res=%+v blocks=%v", res, got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotated order = %v, want %v", got, want)
		}
	}
	if m := c.Metrics(); m.PartialBlockReads != 0 {
		t.Fatalf("rotated whole-file read streamed %d slices", m.PartialBlockReads)
	}
}

// TestReadWalkExits injects a failure at each way the block walk can end
// badly, for both entry points: the second block is missing, has no live
// replica, or exhausts its retries. Whatever the exit, the read leaves the
// active-read gauge at zero and moves exactly one of ReadsCompleted /
// ReadsFailed, and the bytes of the block read before the failure stay in
// the result but not in BytesRead.
func TestReadWalkExits(t *testing.T) {
	faults := []struct {
		name, wantErr string
		inject        func(c *Cluster, f *INode)
	}{
		{"missing block", "no such block", func(c *Cluster, f *INode) {
			f.Blocks[1] = c.nextBlock + 100 // an ID the block map never minted
		}},
		{"no live replica", "no live replica", func(c *Cluster, f *INode) {
			for _, dn := range append([]DatanodeID(nil), c.Replicas(f.Blocks[1])...) {
				c.Kill(dn)
			}
		}},
		{"retry exhaustion", "failed after 3 attempts", func(c *Cluster, f *INode) {
			for _, dn := range c.Replicas(f.Blocks[1]) {
				if err := c.CorruptReplica(f.Blocks[1], dn); err != nil {
					panic(err)
				}
			}
		}},
	}
	reads := []struct {
		name  string
		issue func(c *Cluster, done func(*ReadResult))
	}{
		{"ReadFile", func(c *Cluster, done func(*ReadResult)) { c.ReadFile(5, "/data/a", done) }},
		{"ReadRange", func(c *Cluster, done func(*ReadResult)) { c.ReadRange(5, "/data/a", 32*mb, 96*mb, done) }},
	}
	for _, fault := range faults {
		for _, rd := range reads {
			t.Run(fault.name+"/"+rd.name, func(t *testing.T) {
				e, c := newCluster(t)
				f, err := c.CreateFile("/data/a", 200*mb, 3, 0)
				if err != nil {
					t.Fatal(err)
				}
				fault.inject(c, f)
				var res *ReadResult
				calls := 0
				rd.issue(c, func(r *ReadResult) { res = r; calls++ })
				if c.ActiveReads() != 1 {
					t.Fatalf("ActiveReads = %d while the read is in flight, want 1", c.ActiveReads())
				}
				e.RunUntil(time.Hour)
				if calls != 1 || res.Err == nil || !strings.Contains(res.Err.Error(), fault.wantErr) {
					t.Fatalf("done called %d times with %+v, want one failure mentioning %q", calls, res, fault.wantErr)
				}
				if res.Bytes == 0 || res.End < res.Start {
					t.Errorf("result lost the first block's bytes or its end time: %+v", res)
				}
				m := c.Metrics()
				if c.ActiveReads() != 0 || m.ReadsStarted != 1 || m.ReadsFailed != 1 || m.ReadsCompleted != 0 {
					t.Errorf("active=%d started=%d failed=%d completed=%d, want 0/1/1/0",
						c.ActiveReads(), m.ReadsStarted, m.ReadsFailed, m.ReadsCompleted)
				}
				if m.BytesRead != 0 || m.RangedBytesRead != 0 {
					t.Errorf("a failed read counted bytes: %v / %v ranged", m.BytesRead, m.RangedBytesRead)
				}
			})
		}
	}
}

// TestQueuedBlockReadReportsCurrentPath holds a block read in its datanode's
// admission queue while the file is renamed, or renamed and deleted: the
// read's BlockReadEvent names the path the file has when the session is
// granted — the new one after a rename, the last one after a delete, whose
// other reads then fail on their next (dropped) block.
func TestQueuedBlockReadReportsCurrentPath(t *testing.T) {
	for _, tc := range []struct {
		name  string
		after func(c *Cluster) error
		want  []string // event paths, in admission order
	}{
		{"rename", func(c *Cluster) error { return c.Rename("/a", "/b") }, []string{"/a", "/b", "/b", "/b"}},
		{"rename then delete", func(c *Cluster) error {
			if err := c.Rename("/a", "/b"); err != nil {
				return err
			}
			return c.DeleteFile("/b")
		}, []string{"/a", "/b"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			c := New(e, Config{Topology: topology.New(topology.Config{}), MaxSessionsPerNode: 1})
			if _, err := c.CreateFile("/a", 128*mb, 1, 0); err != nil {
				t.Fatal(err)
			}
			var paths []string
			c.OnBlockRead(func(ev BlockReadEvent) { paths = append(paths, ev.Path) })
			c.ReadFile(1, "/a", nil)
			c.ReadFile(2, "/a", nil)
			if d := c.Datanode(0); d.Sessions() != 1 || d.QueueLen() != 1 {
				t.Fatalf("sessions=%d queue=%d, want one admitted read and one queued", d.Sessions(), d.QueueLen())
			}
			if err := tc.after(c); err != nil {
				t.Fatal(err)
			}
			e.Run()
			if !slices.Equal(paths, tc.want) {
				t.Fatalf("event paths %q, want %q", paths, tc.want)
			}
		})
	}
}
