package hdfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"erms/internal/auditlog"
	"erms/internal/sim"
	"erms/internal/topology"
	"erms/internal/wire"
)

func ckptConfig() Config {
	return Config{
		Topology:     topology.New(topology.Config{}), // 18 nodes, 3 racks
		StandbyNodes: []DatanodeID{16, 17},
		Heartbeat: HeartbeatConfig{
			Enabled:      true,
			Interval:     3 * time.Second,
			StaleTimeout: 30 * time.Second,
			DeadTimeout:  2 * time.Minute,
		},
	}
}

// busyCluster drives a cluster through every durable-state feature the
// checkpoint serializes: plain and encoded files, renames, deletes,
// replication changes, node lifecycle transitions (kill/dead/restart,
// standby/commission), corruption reports, a rack partition, and replica
// copies still in flight at the end.
func busyCluster(t *testing.T, withJournal bool) (*sim.Engine, *Cluster) {
	t.Helper()
	e := sim.NewEngine()
	c := New(e, ckptConfig())
	if withJournal {
		c.SetJournal(auditlog.NewJournal())
	}

	mustCreate := func(path string, size float64, repl int) {
		t.Helper()
		if _, err := c.CreateFile(path, size, repl, -1); err != nil {
			t.Fatalf("create %s: %v", path, err)
		}
	}
	mustCreate("/data/a", 200*mb, 3)
	mustCreate("/data/b", 64*mb, 1)
	mustCreate("/data/c", 320*mb, 2)
	mustCreate("/data/d", 128*mb, 3)
	e.RunUntil(10 * time.Second)

	c.SetReplication("/data/a", 4, WholeAtOnce, nil)
	if err := c.Rename("/data/d", "/data/d2"); err != nil {
		t.Fatal(err)
	}
	c.ReadFile(2, "/data/a", nil)
	e.RunUntil(20 * time.Second)

	c.EncodeFile("/data/c", 2, 1, func(err error) {
		if err != nil {
			t.Errorf("encode: %v", err)
		}
	})
	e.RunUntil(40 * time.Second)

	// Crash a node and let the heartbeat detector walk it through stale
	// and dead; re-replication repairs the lost copies.
	c.Kill(4)
	e.RunUntil(40*time.Second + 2*time.Minute + 10*time.Second)
	c.Restart(4)

	// Corrupt the single replica of a fresh single-copy file; the failed
	// read flags it reported (last copy is kept, not quarantined).
	mustCreate("/data/r1", 64*mb, 1)
	b := c.File("/data/r1").Blocks[0]
	if len(c.Replicas(b)) != 1 {
		t.Fatalf("replicas of /data/r1 = %v", c.Replicas(b))
	}
	if err := c.CorruptReplica(b, c.Replicas(b)[0]); err != nil {
		t.Fatal(err)
	}
	c.ReadFile(1, "/data/r1", nil)
	e.RunUntil(3 * time.Minute)

	c.Commission(16)
	c.ToStandby(2)
	c.SetReplication("/data/b", 3, OneByOne, nil)
	if err := c.DeleteFile("/data/d2"); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(4 * time.Minute)

	c.PartitionRack(2)
	// Leave copies in flight so the checkpoint carries pending adds.
	c.SetReplication("/data/a", 6, WholeAtOnce, nil)
	e.RunUntil(4*time.Minute + 2*time.Second)
	return e, c
}

func restoreFrom(t *testing.T, data []byte) (*sim.Engine, *Cluster, error) {
	t.Helper()
	e := sim.NewEngine()
	c := New(e, ckptConfig())
	err := c.RestoreCheckpoint(bytes.NewReader(data))
	return e, c, err
}

func TestCheckpointRoundTrip(t *testing.T) {
	e, c := busyCluster(t, false)
	if errs := c.ConsistencyErrors(); errs != nil {
		t.Fatalf("live cluster inconsistent: %v", errs)
	}
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	e2, c2, err := restoreFrom(t, buf.Bytes())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if errs := c2.ConsistencyErrors(); errs != nil {
		t.Fatalf("restored cluster inconsistent: %v", errs)
	}
	if e2.Now() != e.Now() {
		t.Fatalf("restored engine at %v, want %v", e2.Now(), e.Now())
	}
	if got, want := c2.StateDigest(), c.StateDigest(); got != want {
		t.Fatalf("state digest %#x != live %#x", got, want)
	}

	// The strongest equivalence check: the restored cluster re-encodes to
	// the identical byte stream.
	var buf2 bytes.Buffer
	if err := c2.WriteCheckpoint(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-encoded checkpoint differs (%d vs %d bytes)", buf.Len(), buf2.Len())
	}

	// Spot checks on reconstructed state the digest already covers, plus
	// ground truth it does not.
	if c2.Files() != c.Files() || c2.LiveBlocks() != c.LiveBlocks() {
		t.Fatalf("files/blocks %d/%d, want %d/%d", c2.Files(), c2.LiveBlocks(), c.Files(), c.LiveBlocks())
	}
	if c2.TotalUsed() != c.TotalUsed() {
		t.Fatalf("TotalUsed %v != %v", c2.TotalUsed(), c.TotalUsed())
	}
	if !reflect.DeepEqual(c2.UnderReplicated(), c.UnderReplicated()) {
		t.Fatalf("UnderReplicated %v != %v", c2.UnderReplicated(), c.UnderReplicated())
	}
	if !reflect.DeepEqual(c2.StaleNodes(), c.StaleNodes()) {
		t.Fatalf("StaleNodes %v != %v", c2.StaleNodes(), c.StaleNodes())
	}
	if !c2.RackPartitioned(2) {
		t.Fatal("rack partition not restored")
	}
	if got, want := c2.Metrics(), c.Metrics(); got.ReplicasAdded != want.ReplicasAdded ||
		got.CorruptDetected != want.CorruptDetected {
		t.Fatalf("metrics drifted: %+v vs %+v", got, want)
	}
	for _, d := range []DatanodeID{0, 4, 16, 2} {
		if c2.Datanode(d).State != c.Datanode(d).State {
			t.Fatalf("node %d state %v != %v", d, c2.Datanode(d).State, c.Datanode(d).State)
		}
	}
	// The restored cluster keeps running: the in-flight write is gone
	// (transient), but the namespace still accepts work.
	if _, err := c2.CreateFile("/post/restore", 64*mb, 3, -1); err != nil {
		t.Fatalf("create after restore: %v", err)
	}
	e2.RunUntil(e2.Now() + 30*time.Second)
	if errs := c2.ConsistencyErrors(); errs != nil {
		t.Fatalf("restored cluster broke after resuming: %v", errs)
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	_, c := busyCluster(t, false)
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	assertPristine := func(c2 *Cluster, what string) {
		t.Helper()
		if c2.Files() != 0 || c2.LiveBlocks() != 0 {
			t.Fatalf("%s half-restored: %d files, %d blocks", what, c2.Files(), c2.LiveBlocks())
		}
	}
	for cut := 0; cut < len(good); cut += 997 {
		_, c2, err := restoreFrom(t, good[:cut])
		if err == nil {
			t.Fatalf("truncation at %d of %d restored without error", cut, len(good))
		}
		assertPristine(c2, fmt.Sprintf("truncation at %d", cut))
	}
	for i := 0; i < len(good); i += 1009 {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0xff
		_, c2, err := restoreFrom(t, bad)
		if err == nil {
			t.Fatalf("bit flip at %d restored without error", i)
		}
		assertPristine(c2, fmt.Sprintf("bit flip at %d", i))
	}
	if _, c2, err := restoreFrom(t, []byte("definitely not a checkpoint")); err == nil {
		t.Fatal("garbage restored without error")
	} else {
		assertPristine(c2, "garbage")
	}
}

func TestRestoreGuards(t *testing.T) {
	_, c := busyCluster(t, false)
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// Non-pristine target.
	if err := c.RestoreCheckpoint(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "pristine") {
		t.Fatalf("restore into busy cluster: %v", err)
	}

	// Config mismatch.
	e2 := sim.NewEngine()
	cfg := ckptConfig()
	cfg.DefaultReplication = 5
	c2 := New(e2, cfg)
	if err := c2.RestoreCheckpoint(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "config digest") {
		t.Fatalf("restore across configs: %v", err)
	}

	// Engine already past the capture time.
	e3 := sim.NewEngine()
	c3 := New(e3, ckptConfig())
	e3.RunUntil(time.Hour)
	if err := c3.RestoreCheckpoint(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "past checkpoint time") {
		t.Fatalf("restore into advanced engine: %v", err)
	}

	// Version drift.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[len(checkpointMagic)] = CheckpointVersion + 1 // single-byte uvarint
	if _, _, err := restoreFrom(t, bad); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		// The checksum catches the edit; a well-formed future version
		// would fail the explicit version check instead.
		t.Fatalf("version edit: %v", err)
	}
}

// TestRestoreRejectsOverlongVarint re-seals a checkpoint whose journal
// seq, a one-byte 0x00, is spelled 0x80 0x00. The checksum holds and the
// value decodes to the same 0, but the stream is not the one the cluster
// would write, so restore must refuse it, name the field, and leave the
// cluster pristine.
func TestRestoreRejectsOverlongVarint(t *testing.T) {
	_, c := busyCluster(t, false)
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	r, err := wire.Open(good, checkpointMagic, CheckpointVersion, "")
	if err != nil {
		t.Fatal(err)
	}
	r.Fixed64("config digest")
	r.Uvarint("capture time")
	at := len(good) - 8 - len(r.Rest())
	if good[at] != 0 {
		t.Fatalf("journal seq byte is %#x, want 0x00 (no journal attached)", good[at])
	}
	body := append(append(append([]byte(nil), good[:at]...), 0x80, 0x00), good[at+1:len(good)-8]...)
	_, c2, err := restoreFrom(t, wire.Writer(body).Seal(0))
	if err == nil || !strings.Contains(err.Error(), "journal seq") {
		t.Fatalf("overlong journal seq: err = %v, want a refusal naming the field", err)
	}
	if c2.Files() != 0 || c2.LiveBlocks() != 0 || c2.nextBlock != 0 {
		t.Fatalf("refused restore left %d files, %d blocks behind", c2.Files(), c2.LiveBlocks())
	}
}

// forgeCheckpoint writes, field by field, a checkpoint of one one-block
// file into c's configuration, with the header's nextBlock, the block's one
// replica node, every node's state and the partitioned racks as given: the
// checksum is valid, so only the decoder's own checks stand between these
// values and restore.
func forgeCheckpoint(c *Cluster, nextBlock, node uint64, state NodeState, racks ...uint64) []byte {
	w := wire.Begin(nil, checkpointMagic, CheckpointVersion)
	w = binary.LittleEndian.AppendUint64(w, c.ConfigDigest())
	for _, v := range []uint64{0, 0, nextBlock, 1, uint64(len(c.datanodes))} {
		w.Uvarint(v) // capture time, journal seq, nextBlock, file slots, nodes
	}
	w.Bool(true)
	w.Str("/forged")
	w.F64(mb)
	w.Varint(0)  // createdAt
	w.Uvarint(1) // target replication
	w.Bool(false)
	w.Uvarint(0) // encodeK
	w.Uvarint(0) // encodeM
	w.Uvarint(1) // block list: block 0
	w.Varint(0)
	w.Uvarint(0) // parity list
	w.Uvarint(1) // block 0's replicas
	w.Uvarint(node)
	for range c.datanodes {
		w.Uvarint(uint64(state))
		w = append(w, 0, 0, 0, 0, 0, 0, 0) // stale, crashed, three times, two empty sets
	}
	w.Uvarint(uint64(len(racks)))
	for _, r := range racks {
		w.Uvarint(r)
	}
	w.Uvarint(0) // scrub cursor
	for range (&Metrics{}).checkpointed() {
		w.Uvarint(0)
	}
	return w.Seal(0)
}

// TestRestoreRejectsForgedHeaders: a checksum is no authentication, so
// values a forger picks must be range-checked before they size or index
// anything — a nextBlock past 2^63 and a replica node past 2^63 used to
// panic (negative make, negative index), and a repeated partitioned rack
// restored but re-encoded shorter.
func TestRestoreRejectsForgedHeaders(t *testing.T) {
	newC := func() *Cluster { return New(sim.NewEngine(), ckptConfig()) }
	if err := newC().RestoreCheckpoint(bytes.NewReader(forgeCheckpoint(newC(), 1, 0, StateActive, 1))); err != nil {
		t.Fatalf("the unforged baseline does not restore: %v", err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"nextBlock 2^63", forgeCheckpoint(newC(), 1<<63, 0, StateActive), "implausible"},
		{"replica node 2^64-1", forgeCheckpoint(newC(), 1, math.MaxUint64, StateActive), "bad or duplicate replica node"},
		{"repeated rack", forgeCheckpoint(newC(), 1, 0, StateActive, 1, 1), "repeated rack"},
		{"node state 4", forgeCheckpoint(newC(), 1, 0, 4), "unknown state 4"},
	} {
		c := newC()
		if err := c.RestoreCheckpoint(bytes.NewReader(tc.data)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if c.Files() != 0 || c.LiveBlocks() != 0 || c.nextBlock != 0 {
			t.Errorf("%s: refused restore left state behind", tc.name)
		}
	}
}

// TestJournalReplayEquivalence is the failover contract: a standby built
// from a mid-storm checkpoint plus the journal tail matches the live
// namenode's durable state exactly, even though the checkpoint was taken
// with transfers, reads and replication changes all in flight.
func TestJournalReplayEquivalence(t *testing.T) {
	e, c := busyCluster(t, true)

	// Snapshot mid-run state: checkpoint bytes + the journal position.
	var ckpt bytes.Buffer
	if err := c.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	seq := c.Journal().NextSeq()

	// The live cluster keeps going: partition heals, more churn.
	c.HealRack(2)
	c.SetReplication("/data/b", 2, OneByOne, nil)
	c.ReadFile(9, "/data/a", nil)
	e.RunUntil(6 * time.Minute)
	c.DecodeFile("/data/c", 2, nil)
	c.Kill(10)
	e.RunUntil(9 * time.Minute)
	if errs := c.ConsistencyErrors(); errs != nil {
		t.Fatalf("live cluster inconsistent: %v", errs)
	}

	// Standby: restore the checkpoint, replay the tail.
	_, c2, err := restoreFrom(t, ckpt.Bytes())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if c2.RestoredJournalSeq() != seq {
		t.Fatalf("restored journal seq %d, want %d", c2.RestoredJournalSeq(), seq)
	}
	tail := c.Journal().Tail(seq)
	if tail == nil {
		t.Fatal("journal tail unavailable")
	}
	if err := c2.ReplayJournal(tail); err != nil {
		t.Fatal(err)
	}
	if errs := c2.ConsistencyErrors(); errs != nil {
		t.Fatalf("replayed standby inconsistent: %v", errs)
	}
	if got, want := c2.StateDigest(), c.StateDigest(); got != want {
		t.Fatalf("standby digest %#x != live %#x after replay of %d entries", got, want, len(tail))
	}
}

func TestReplayJournalValidation(t *testing.T) {
	_, c := busyCluster(t, true)
	var ckpt bytes.Buffer
	if err := c.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	seq := c.Journal().NextSeq()

	// Wrong starting sequence.
	_, c2, err := restoreFrom(t, ckpt.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.ReplayJournal([]auditlog.Entry{{Seq: seq + 3, Op: auditlog.OpSetTarget}}); err == nil ||
		!strings.Contains(err.Error(), "checkpoint expects") {
		t.Fatalf("tail offset mismatch: %v", err)
	}

	// Gap inside the tail.
	if err := c2.ReplayJournal([]auditlog.Entry{
		{Seq: seq, Op: auditlog.OpNodeStale, Node: 0, Flag: true},
		{Seq: seq + 2, Op: auditlog.OpNodeStale, Node: 0, Flag: false},
	}); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gapped tail: %v", err)
	}

	// Semantically invalid entries stop replay with an error.
	for _, bad := range []auditlog.Entry{
		{Op: auditlog.OpFileAdd, Path: "/data/a", File: 99999},                         // wrong intern ID
		{Op: auditlog.OpFileAdd, Path: "/data/new", File: len(c.fileByID), Target: -1}, // target below 1
		{Op: auditlog.OpBlockAdd, Block: 5},                                            // out-of-sequence block
		{Op: auditlog.OpReplicaAdd, Block: 1 << 40, Node: 0},                           // unknown block
		{Op: auditlog.OpNodeState, Node: 99, State: int(StateDown)},                    // unknown node
		{Op: auditlog.OpNodeState, Node: 0, State: 3},                                  // retired state
		{Op: auditlog.OpNodeState, Node: 0, State: 4},                                  // retired state
		{Op: auditlog.OpNodeState, Node: 0, State: 42},                                 // unknown state
	} {
		_, c3, err := restoreFrom(t, ckpt.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		bad.Seq = seq
		if err := c3.ReplayJournal([]auditlog.Entry{bad}); err == nil {
			t.Fatalf("entry %+v replayed without error", bad)
		}
	}
}

func TestStateDigestSensitivity(t *testing.T) {
	_, c := busyCluster(t, false)
	base := c.StateDigest()
	if c.StateDigest() != base {
		t.Fatal("digest not stable")
	}
	if err := c.Rename("/data/a", "/data/a2"); err != nil {
		t.Fatal(err)
	}
	if c.StateDigest() == base {
		t.Fatal("digest blind to rename")
	}
	if err := c.Rename("/data/a2", "/data/a"); err != nil {
		t.Fatal(err)
	}
	if c.StateDigest() != base {
		t.Fatal("digest not restored by inverse rename")
	}
}

// TestShadowRestoresAndReplays: Shadow rebuilds a cluster whose standby set
// and heartbeat tuning it does not copy from a checkpoint plus the journal
// written since, matching the live digest, and its error names the step
// that failed.
func TestShadowRestoresAndReplays(t *testing.T) {
	e, c := busyCluster(t, true)
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	seq := c.Journal().NextSeq()
	if _, err := c.CreateFile("/data/late", 128*mb, 2, -1); err != nil {
		t.Fatal(err)
	}
	e.RunFor(time.Minute)
	tail := c.Journal().Tail(seq)
	if len(tail) < 2 {
		t.Fatalf("tail of %d entries", len(tail))
	}
	s, err := c.Shadow(buf.Bytes(), tail)
	if err != nil {
		t.Fatal(err)
	}
	if s.StateDigest() != c.StateDigest() {
		t.Fatal("shadow digest differs from the live cluster's")
	}
	if _, err := c.Shadow(buf.Bytes()[:len(buf.Bytes())-1], nil); err == nil || !strings.Contains(err.Error(), "shadow restore") {
		t.Fatalf("truncated checkpoint: %v, want a restore error", err)
	}
	if _, err := c.Shadow(buf.Bytes(), tail[1:]); err == nil || !strings.Contains(err.Error(), "shadow replay") {
		t.Fatalf("tail missing its first entry: %v, want a replay error", err)
	}
}
