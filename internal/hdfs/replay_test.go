package hdfs

import (
	"bytes"
	"testing"
	"time"

	"erms/internal/auditlog"
	"erms/internal/sim"
)

// replayStorm drives a journaled cluster through a checkpoint and then a
// storm of every journaled transition: creates, replication raised above
// the default and lowered, a rename, an encode and a decode, deletes of
// multi-block files held above the default, a crash aged through stale
// to dead and restarted, a muted node that goes stale and recovers,
// standby and commission, a last-copy corruption report and a rack
// partition. It returns the live cluster and the
// checkpoint taken before the storm.
func replayStorm(t *testing.T) (*Cluster, []byte) {
	t.Helper()
	e := sim.NewEngine()
	c := New(e, ckptConfig())
	c.SetJournal(auditlog.NewJournal())
	mustCreate := func(path string, size float64, repl int) {
		t.Helper()
		if _, err := c.CreateFile(path, size, repl, -1); err != nil {
			t.Fatalf("create %s: %v", path, err)
		}
	}
	mustCreate("/s/hot", 192*mb, 3)
	mustCreate("/s/warm", 256*mb, 3)
	mustCreate("/s/cold", 320*mb, 2)
	mustCreate("/s/one", 64*mb, 1)
	e.RunUntil(10 * time.Second)
	var ckpt bytes.Buffer
	if err := c.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	c.SetReplication("/s/hot", 5, WholeAtOnce, nil)
	c.SetReplication("/s/warm", 5, OneByOne, nil)
	c.EncodeFile("/s/cold", 2, 1, nil)
	mustCreate("/s/new", 128*mb, 4)
	e.RunUntil(40 * time.Second)
	if err := c.Rename("/s/warm", "/s/warm2"); err != nil {
		t.Fatal(err)
	}
	c.Kill(4)
	c.SetFault(9, Fault{Muted: true})
	e.RunUntil(80 * time.Second)
	c.SetFault(9, Fault{})
	b := c.File("/s/one").Blocks[0]
	if err := c.CorruptReplica(b, c.Replicas(b)[0]); err != nil {
		t.Fatal(err)
	}
	c.ReadFile(1, "/s/one", nil)
	e.RunUntil(3 * time.Minute)
	c.Restart(4)
	c.DecodeFile("/s/cold", 3, nil)
	c.Commission(16)
	c.ToStandby(2)
	c.SetReplication("/s/new", 6, OneByOne, nil)
	e.RunUntil(4 * time.Minute)
	for _, p := range []string{"/s/hot", "/s/warm2"} {
		if c.ReplicationOf(p) <= DefaultReplication {
			t.Fatalf("%s at replication %d: the delete below must drop a file above the default", p, c.ReplicationOf(p))
		}
		if err := c.DeleteFile(p); err != nil {
			t.Fatal(err)
		}
	}
	c.SetReplication("/s/new", 2, WholeAtOnce, nil)
	c.PartitionRack(2)
	e.RunUntil(5 * time.Minute)
	c.HealRack(2)
	e.RunUntil(6 * time.Minute)
	if errs := c.ConsistencyErrors(); errs != nil {
		t.Fatalf("live cluster inconsistent: %v", errs)
	}
	return c, ckpt.Bytes()
}

// TestReplayKeepsIndexesAfterEveryEntry replays a storm's journal tail one
// entry at a time onto the checkpoint it follows: after every entry each
// derived index (placement load buckets, the under-replicated set, the
// above-default set) must agree with a recount, with no rebuild, and the
// replayed cluster must end on the live one's digest.
func TestReplayKeepsIndexesAfterEveryEntry(t *testing.T) {
	c, ckpt := replayStorm(t)
	_, c2, err := restoreFrom(t, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	tail := c.Journal().Tail(c2.RestoredJournalSeq())
	if len(tail) == 0 {
		t.Fatal("empty journal tail")
	}
	ops := map[auditlog.Op]int{}
	for _, e := range tail {
		if err := c2.ReplayJournal([]auditlog.Entry{e}); err != nil {
			t.Fatal(err)
		}
		if errs := c2.ConsistencyErrors(); errs != nil {
			t.Fatalf("after seq %d (%s %+v): %v", e.Seq, e.Op, e, errs)
		}
		ops[e.Op]++
	}
	for _, op := range []auditlog.Op{
		auditlog.OpFileAdd, auditlog.OpFileDrop, auditlog.OpRename, auditlog.OpSetTarget,
		auditlog.OpEncodeGeom, auditlog.OpEncodeDone, auditlog.OpDecodeStart,
		auditlog.OpBlockAdd, auditlog.OpBlockDrop, auditlog.OpReplicaAdd, auditlog.OpReplicaDrop,
		auditlog.OpNodeState, auditlog.OpNodeStale, auditlog.OpReported,
	} {
		if ops[op] == 0 {
			t.Errorf("storm journaled no %s entry", op)
		}
	}
	if got, want := c2.StateDigest(), c.StateDigest(); got != want {
		t.Fatalf("replayed digest %#x != live %#x", got, want)
	}
}

// fuzzOps is the op alphabet FuzzReplayJournal draws from.
var fuzzOps = [...]auditlog.Op{
	auditlog.OpFileAdd, auditlog.OpFileDrop, auditlog.OpRename, auditlog.OpSetTarget,
	auditlog.OpEncodeGeom, auditlog.OpEncodeDone, auditlog.OpDecodeStart, auditlog.OpClearGeom,
	auditlog.OpBlockAdd, auditlog.OpBlockDrop, auditlog.OpReplicaAdd, auditlog.OpReplicaDrop,
	auditlog.OpNodeState, auditlog.OpNodeStale, auditlog.OpReported,
	auditlog.OpFedMoveIntent, auditlog.OpFedMoveCommit, auditlog.OpFedMoveTombstone,
}

// fuzzEntry decodes six bytes into one journal entry against c's current
// state. The file and block fields count back from the next intern ID and
// the next block ID, so 0 names the one a fresh file or block must take,
// and small values name recent live ones.
func fuzzEntry(c *Cluster, r []byte) auditlog.Entry {
	paths := [...]string{"", "/f/a", "/f/b", "/s/one", "/s/cold"}
	e := auditlog.Entry{
		Seq:    c.RestoredJournalSeq(),
		Op:     fuzzOps[int(r[0])%len(fuzzOps)],
		File:   len(c.fileByID) - int(r[1]),
		Block:  int64(c.nextBlock) - int64(r[2]),
		Node:   int(r[3]) % (len(c.datanodes) + 2),
		State:  int(r[4] % 6),
		Flag:   r[5]&1 == 1,
		Target: int(r[5]>>1) % 6,
		K:      int(r[4] % 4),
		M:      int(r[5] % 3),
		Path:   paths[int(r[1])%len(paths)],
		Dst:    paths[int(r[2])%len(paths)],
		Size:   float64(r[3]) * mb,
		Index:  int(r[3]),
		Group:  int(r[4]),
	}
	if e.Op == auditlog.OpBlockAdd && e.File >= 0 && e.File < len(c.fileByID) && c.fileByID[e.File] != nil {
		// A block add draws the geometry the named file derives for its
		// next data block, or (Flag) for parity slot r[3]%8 of its stripe
		// layout; r[4] then skews one field, so both agreeing and
		// disagreeing adds are drawn.
		f := c.fileByID[e.File]
		n := len(f.Blocks)
		e.Index, e.Size, e.Group = n, c.blockBytes(n, blockCount(f.Size, BlockSize), f.Size), 0
		if e.Flag {
			j := int(r[3]) % 8
			_, m := f.Geometry()
			e.Index, e.Size, e.Group = n+j, BlockSize, j/max(m, 1)
		}
		switch r[4] % 8 {
		case 1:
			e.Index++
		case 2:
			e.Size += mb
		case 3:
			e.Group++
		}
	}
	return e
}

// fuzzCheckpoint is the small cluster FuzzReplayJournal restores: two
// files at replication 4, one of them encoded RS(2,1).
func fuzzCheckpoint(tb testing.TB) []byte {
	e := sim.NewEngine()
	c := New(e, ckptConfig())
	c.SetJournal(auditlog.NewJournal())
	for _, p := range []string{"/s/one", "/s/cold"} {
		if _, err := c.CreateFile(p, 192*mb, 4, -1); err != nil {
			tb.Fatal(err)
		}
	}
	c.EncodeFile("/s/cold", 2, 1, nil)
	e.RunUntil(time.Minute)
	var ckpt bytes.Buffer
	if err := c.WriteCheckpoint(&ckpt); err != nil {
		tb.Fatal(err)
	}
	return ckpt.Bytes()
}

// replayFuzzInput restores ckpt and replays data, six bytes an entry, one
// entry at a time, failing on the first entry after which the cluster is
// inconsistent. Only the first 128 entries are read: each one is followed
// by an O(cluster) recount, so longer inputs only cost time.
func replayFuzzInput(t *testing.T, ckpt, data []byte) {
	c := New(sim.NewEngine(), ckptConfig())
	if err := c.RestoreCheckpoint(bytes.NewReader(ckpt)); err != nil {
		t.Fatal(err)
	}
	for data = data[:min(len(data), 6*128)]; len(data) >= 6; data = data[6:] {
		ent := fuzzEntry(c, data)
		err := c.ReplayJournal([]auditlog.Entry{ent})
		if errs := c.ConsistencyErrors(); errs != nil {
			t.Fatalf("entry %s %+v (err %v) left the cluster inconsistent: %v", ent.Op, ent, err, errs)
		}
	}
}

// FuzzReplayJournal applies arbitrary entry sequences, six bytes an entry,
// one entry at a time to a small restored cluster. Each entry must be
// rejected or applied, never panic, and either way leave every derived
// index consistent: validation runs before any mutation, and every
// accepted entry goes through a live transition that keeps the indexes.
func FuzzReplayJournal(f *testing.F) {
	ckpt := fuzzCheckpoint(f)
	f.Add([]byte{12, 0, 0, 3, byte(StateDown), 0, 12, 0, 0, 3, byte(StateActive), 1}) // death, restart
	f.Add([]byte{8, 1, 0, 0, 0, 1, 10, 0, 1, 2, 0, 0})                                // parity block, replica
	f.Add([]byte{11, 0, 7, 0, 0, 0, 9, 0, 7, 0, 0, 0, 1, 2, 0, 0, 0, 0})              // replica, block, file drop
	f.Add([]byte{13, 0, 0, 5, 0, 1, 3, 1, 0, 0, 0, 10, 6, 1, 0, 0, 0, 0, 7, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { replayFuzzInput(t, ckpt, data) })
}

// TestReplayChecksBlockAddsAgainstTheirFile replays a tail that mints the
// data blocks of a new file and the parity of an RS(2,2) encode, each
// OpBlockAdd in turn with one field the file does not derive: a size off
// by a megabyte, an index a stripe's parity width on (a parity's index is
// checked through the stripe it implies), the parity flag flipped, or the
// next stripe group. Every such entry is refused before anything changes,
// the cluster stays consistent, and the unaltered tail replays to the live
// digest.
func TestReplayChecksBlockAddsAgainstTheirFile(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, ckptConfig())
	c.SetJournal(auditlog.NewJournal())
	if _, err := c.CreateFile("/g/a", 150*mb, 3, -1); err != nil {
		t.Fatal(err)
	}
	ckpt, seq := c.AppendCheckpoint(nil), c.Journal().NextSeq()
	if _, err := c.CreateFile("/g/b", 150*mb, 3, -1); err != nil { // 64 + 64 + 22 MB
		t.Fatal(err)
	}
	c.EncodeFile("/g/a", 2, 2, nil) // two stripes, four parities
	e.RunUntil(time.Minute)
	tail := c.Journal().Tail(seq)
	restored := func() *Cluster {
		c2 := New(sim.NewEngine(), ckptConfig())
		if err := c2.RestoreCheckpointBytes(ckpt); err != nil {
			t.Fatal(err)
		}
		return c2
	}
	skews := map[string]func(*auditlog.Entry){
		"size":  func(e *auditlog.Entry) { e.Size += mb },
		"index": func(e *auditlog.Entry) { e.Index += 2 },
		"flag":  func(e *auditlog.Entry) { e.Flag = !e.Flag },
		"group": func(e *auditlog.Entry) { e.Group++ },
	}
	adds := map[bool]int{}
	for i, ent := range tail {
		if ent.Op != auditlog.OpBlockAdd {
			continue
		}
		adds[ent.Flag]++
		for name, skew := range skews {
			c2 := restored()
			if err := c2.ReplayJournal(tail[:i]); err != nil {
				t.Fatal(err)
			}
			before, next := c2.StateDigest(), c2.nextBlock
			bad := ent
			skew(&bad)
			if err := c2.ReplayJournal([]auditlog.Entry{bad}); err == nil {
				t.Fatalf("seq %d %s skewed by %s replayed: %+v", ent.Seq, ent.Op, name, bad)
			}
			if c2.StateDigest() != before || c2.nextBlock != next {
				t.Fatalf("seq %d skewed by %s: refused entry changed the cluster", ent.Seq, name)
			}
			if errs := c2.ConsistencyErrors(); errs != nil {
				t.Fatalf("seq %d skewed by %s: %v", ent.Seq, name, errs)
			}
		}
	}
	if adds[false] != 3 || adds[true] != 4 {
		t.Fatalf("tail minted %d data and %d parity blocks, want 3 and 4", adds[false], adds[true])
	}
	c2 := restored()
	if err := c2.ReplayJournal(tail); err != nil {
		t.Fatal(err)
	}
	if got, want := c2.StateDigest(), c.StateDigest(); got != want {
		t.Fatalf("replayed digest %#x != live %#x", got, want)
	}
}

// TestReplayJournalFromMatchesTail replays a storm straight from the live
// journal, decoding entry by entry, onto the checkpoint it follows: the
// result is the live digest, as a copied tail gives, and a start the
// journal no longer retains is refused before anything is applied.
func TestReplayJournalFromMatchesTail(t *testing.T) {
	c, ckpt := replayStorm(t)
	_, c2, err := restoreFrom(t, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.ReplayJournalFrom(c.Journal(), c2.RestoredJournalSeq()); err != nil {
		t.Fatal(err)
	}
	if got, want := c2.StateDigest(), c.StateDigest(); got != want {
		t.Fatalf("replayed digest %#x != live %#x", got, want)
	}
	_, c3, err := restoreFrom(t, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	before := c3.StateDigest()
	c.Journal().TruncateTo(c.Journal().NextSeq())
	if err := c3.ReplayJournalFrom(c.Journal(), c3.RestoredJournalSeq()); err == nil || c3.StateDigest() != before {
		t.Fatalf("replay from a truncated journal: err %v, digest moved %t", err, c3.StateDigest() != before)
	}
}
