package hdfs

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"erms/internal/auditlog"
	"erms/internal/sim"
	"erms/internal/topology"
)

func fedCluster(t *testing.T) (*sim.Engine, *Cluster) {
	t.Helper()
	e := sim.NewEngine()
	topo := topology.New(topology.Config{Racks: 3, NodeCount: 9})
	c := New(e, Config{Topology: topo})
	c.SetJournal(auditlog.NewJournal())
	return e, c
}

func TestAppendMarkerMaintainsPendingMoves(t *testing.T) {
	_, c := fedCluster(t)
	intent := auditlog.Entry{Op: auditlog.OpFedMoveIntent, Path: "/a", Dst: "/b", Node: 2}
	if err := c.AppendMarker(intent); err != nil {
		t.Fatalf("intent: %v", err)
	}
	pm := c.PendingMoves()
	if len(pm) != 1 || pm[0].Src != "/a" || pm[0].Dst != "/b" || pm[0].Peer != 2 || pm[0].Committed {
		t.Fatalf("after intent: %+v", pm)
	}
	if err := c.AppendMarker(auditlog.Entry{Op: auditlog.OpFedMoveCommit, Path: "/a", Dst: "/b", Node: 2}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if pm = c.PendingMoves(); len(pm) != 1 || !pm[0].Committed {
		t.Fatalf("after commit: %+v", pm)
	}
	if err := c.AppendMarker(auditlog.Entry{Op: auditlog.OpFedMoveTombstone, Path: "/a", Dst: "/b", Node: 2, Flag: true}); err != nil {
		t.Fatalf("tombstone: %v", err)
	}
	if pm = c.PendingMoves(); pm != nil {
		t.Fatalf("after tombstone: %+v", pm)
	}
	// Markers landed in the journal like any durable fact.
	if got := c.Journal().Len(); got != 3 {
		t.Fatalf("journal has %d entries, want 3", got)
	}
}

func TestAppendMarkerRejections(t *testing.T) {
	_, c := fedCluster(t)
	if err := c.AppendMarker(auditlog.Entry{Op: auditlog.OpFileAdd, Path: "/a", Dst: "/b"}); err == nil {
		t.Error("non-marker op accepted")
	}
	if err := c.AppendMarker(auditlog.Entry{Op: auditlog.OpFedMoveIntent, Path: "/a"}); err == nil {
		t.Error("marker without dst accepted")
	}
	// A fenced writer must not advance a protocol.
	c.Journal().BumpEpoch()
	err := c.AppendMarker(auditlog.Entry{Op: auditlog.OpFedMoveIntent, Path: "/a", Dst: "/b"})
	if !errors.Is(err, ErrFenced) {
		t.Errorf("fenced marker: %v, want ErrFenced", err)
	}
	// No journal, no marker.
	e2 := sim.NewEngine()
	c2 := New(e2, Config{Topology: topology.New(topology.Config{Racks: 3, NodeCount: 9})})
	if err := c2.AppendMarker(auditlog.Entry{Op: auditlog.OpFedMoveIntent, Path: "/a", Dst: "/b"}); err == nil {
		t.Error("journal-less marker accepted")
	}
}

// TestMarkerReplayRebuildsPendingMoves is the recovery story: a standby
// restored from checkpoint+tail must know which moves were in flight.
func TestMarkerReplayRebuildsPendingMoves(t *testing.T) {
	_, c := fedCluster(t)
	if _, err := c.CreateFile("/keep", 64, 2, -1); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := c.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	ckptSeq := c.Journal().NextSeq()
	// Two moves open after the checkpoint: one intent-only, one committed.
	for _, e := range []auditlog.Entry{
		{Op: auditlog.OpFedMoveIntent, Path: "/keep", Dst: "/other/keep", Node: 1},
		{Op: auditlog.OpFedMoveIntent, Path: "/gone", Dst: "/other/gone", Node: 1},
		{Op: auditlog.OpFedMoveCommit, Path: "/gone", Dst: "/other/gone", Node: 1},
	} {
		if err := c.AppendMarker(e); err != nil {
			t.Fatal(err)
		}
	}

	e2 := sim.NewEngine()
	c2 := New(e2, Config{Topology: topology.New(topology.Config{Racks: 3, NodeCount: 9})})
	if err := c2.RestoreCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := c2.ReplayJournal(c.Journal().Tail(ckptSeq)); err != nil {
		t.Fatalf("replay: %v", err)
	}
	pm := c2.PendingMoves()
	if len(pm) != 2 {
		t.Fatalf("replayed pending moves: %+v", pm)
	}
	// Deterministic (Src, Dst) order: /gone before /keep.
	if pm[0].Src != "/gone" || !pm[0].Committed {
		t.Errorf("pm[0] = %+v, want committed /gone", pm[0])
	}
	if pm[1].Src != "/keep" || pm[1].Committed {
		t.Errorf("pm[1] = %+v, want intent-only /keep", pm[1])
	}
	// A commit whose intent predates the retained tail still opens a
	// committed record — the commit alone is enough to roll forward.
	e3 := sim.NewEngine()
	c3 := New(e3, Config{Topology: topology.New(topology.Config{Racks: 3, NodeCount: 9})})
	if err := c3.ReplayJournal([]auditlog.Entry{
		{Seq: 1, Op: auditlog.OpFedMoveCommit, Path: "/x", Dst: "/y", Node: 1},
	}); err != nil {
		t.Fatalf("orphan commit replay: %v", err)
	}
	if pm := c3.PendingMoves(); len(pm) != 1 || !pm[0].Committed {
		t.Fatalf("orphan commit: %+v", pm)
	}
	// Malformed markers are rejected, not guessed at.
	e4 := sim.NewEngine()
	c4 := New(e4, Config{Topology: topology.New(topology.Config{Racks: 3, NodeCount: 9})})
	if err := c4.ReplayJournal([]auditlog.Entry{
		{Seq: 1, Op: auditlog.OpFedMoveIntent, Path: "/x"},
	}); err == nil {
		t.Fatal("marker without dst replayed without error")
	}
}

func TestRestoreCheckpointInPlace(t *testing.T) {
	e, c := fedCluster(t)
	if _, err := c.CreateFile("/f", 128, 3, -1); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := c.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	// Engine races ahead of the capture time — the shared-engine failover
	// situation RestoreCheckpoint rejects.
	e.RunFor(1 << 40)
	c2 := New(e, Config{Topology: topology.New(topology.Config{Racks: 3, NodeCount: 9})})
	if err := c2.RestoreCheckpoint(bytes.NewReader(ckpt.Bytes())); err == nil {
		t.Fatal("RestoreCheckpoint should reject an engine past capture time")
	}
	c3 := New(e, Config{Topology: topology.New(topology.Config{Racks: 3, NodeCount: 9})})
	if err := c3.RestoreCheckpointInPlace(ckpt.Bytes()); err != nil {
		t.Fatalf("in-place restore: %v", err)
	}
	if c3.StateDigest() != c.StateDigest() {
		t.Error("in-place restore digest mismatch")
	}
	if errs := c3.ConsistencyErrors(); errs != nil {
		t.Errorf("in-place restore consistency: %v", errs)
	}
}

// TestRestoreAtCaptureInstant pins what the two restore entry points do
// when the engine holds an event due exactly at the checkpoint's capture
// time. RestoreCheckpoint owns its engine: it runs it up to and including
// the instant, so the event fires over the still-pristine cluster.
// RestoreCheckpointInPlace joins an engine already standing at the
// instant: it adopts the state without running anything, and the event
// fires later, over the restored cluster, when the engine's owner runs on.
func TestRestoreAtCaptureInstant(t *testing.T) {
	e, c := fedCluster(t)
	if _, err := c.CreateFile("/f", 128, 3, -1); err != nil {
		t.Fatal(err)
	}
	const capture = 10 * time.Minute
	e.RunUntil(capture)
	var ckpt bytes.Buffer
	if err := c.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Topology: topology.New(topology.Config{Racks: 3, NodeCount: 9})}

	e2 := sim.NewEngine()
	c2 := New(e2, cfg)
	sawFiles := -1
	e2.At(capture, func() { sawFiles = c2.Files() })
	if err := c2.RestoreCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if sawFiles != 0 {
		t.Errorf("event due at the capture instant saw %d files during RestoreCheckpoint, want 0 (fired over the pristine cluster; -1 = did not fire)", sawFiles)
	}
	if e2.Now() != capture || c2.Files() != 1 || c2.StateDigest() != c.StateDigest() {
		t.Errorf("restore: now %v, %d files, digest match %v", e2.Now(), c2.Files(), c2.StateDigest() == c.StateDigest())
	}

	e3 := sim.NewEngine()
	e3.RunUntil(capture)
	c3 := New(e3, cfg)
	sawFiles = -1
	e3.At(capture, func() { sawFiles = c3.Files() })
	if err := c3.RestoreCheckpointInPlace(ckpt.Bytes()); err != nil {
		t.Fatalf("in-place restore: %v", err)
	}
	if sawFiles != -1 {
		t.Errorf("in-place restore ran the shared engine: the event due now fired and saw %d files", sawFiles)
	}
	if c3.StateDigest() != c.StateDigest() {
		t.Error("in-place restore digest mismatch")
	}
	e3.RunUntil(capture)
	if sawFiles != 1 {
		t.Errorf("after the in-place restore the pending event saw %d files, want 1", sawFiles)
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{ReadsStarted: 1, BytesRead: 2.5, FencedWritesApplied: 1}
	b := Metrics{ReadsStarted: 2, BytesRead: 0.5, SafeModeEntries: 3}
	got := a.Add(b)
	if got.ReadsStarted != 3 || got.BytesRead != 3 || got.FencedWritesApplied != 1 || got.SafeModeEntries != 3 {
		t.Fatalf("Add: %+v", got)
	}
	if (Metrics{}).Add(Metrics{}) != (Metrics{}) {
		t.Error("zero + zero != zero")
	}
}
