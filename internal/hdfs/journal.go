package hdfs

import (
	"fmt"
	"math"

	"erms/internal/auditlog"
)

// Write-ahead journal integration. When a Journal is attached, every
// durable namenode mutation — the exact state StateDigest covers — emits
// one typed entry at its mutation chokepoint (registerFile, addBlock,
// attachReplica, ...), never at the API surface, so every internal path
// (unwind, drain, heartbeat death) is journaled for free. ReplayJournal
// validates each entry and then calls the one transition the live path
// used to emit it, with re-emission suppressed, so every derived index
// stays current entry by entry, as it does live. Replay is idempotent
// where the mutators are (attach/detach guard on membership) and strictly
// validated where they are not (file intern IDs and block IDs must arrive
// in sequence).
//
// The journal deliberately does NOT record what the namenode cannot know:
// silent replica corruption (CorruptReplica), crashed-but-undeclared
// processes, or heartbeat clock bookkeeping. A replayed standby therefore
// matches the live cluster on StateDigest — not on ground-truth corruption
// or on metrics counters, which accumulate only where events actually ran.

// SetJournal attaches a write-ahead journal; every subsequent durable
// mutation appends a typed entry. Attach before the first mutation — the
// journal does not backfill. The cluster adopts the journal's writer epoch
// (see Fenced): a freshly attached journal makes this namenode the
// legitimate writer.
func (c *Cluster) SetJournal(j *auditlog.Journal) {
	c.journal = j
	if j != nil {
		c.epoch = j.Epoch()
	}
}

// Journal returns the attached write-ahead journal, or nil.
func (c *Cluster) Journal() *auditlog.Journal { return c.journal }

// jlog stamps and appends a journal entry, unless no journal is attached
// or the cluster is replaying one (replay must not re-emit).
func (c *Cluster) jlog(e auditlog.Entry) {
	if c.journal == nil || c.replaying {
		return
	}
	// Tripwire, not a gate: mutations are rejected at the API surface when
	// the writer is fenced, so reaching this point fenced means a stale
	// writer interleaved a mutation into the shared journal — the
	// split-brain the epoch invariant oracle asserts never happens.
	if c.Fenced() {
		c.metrics.FencedWritesApplied++
	}
	e.Time = c.clock.Now()
	c.journal.Append(e)
}

// ReplayJournal applies a journal tail to a cluster restored from the
// checkpoint the tail follows. Entries are applied in order through the
// same transitions the live cluster used, which keep every derived index
// current as they go. The first entry must match the checkpoint's recorded
// journal position (RestoredJournalSeq) so a tail can never be applied to
// the wrong base state; replay stops with an error on the first entry
// that fails validation, the entries before it applied.
func (c *Cluster) ReplayJournal(entries []auditlog.Entry) error {
	c.replaying = true
	defer func() { c.replaying = false }()
	for i := range entries {
		if err := c.replayEntry(&entries[i], i == 0); err != nil {
			return err
		}
	}
	return nil
}

// ReplayJournalFrom is ReplayJournal for the tail of j from Seq from,
// decoded as it is applied, not copied out first. A tail j no longer
// retains is an error.
func (c *Cluster) ReplayJournalFrom(j *auditlog.Journal, from uint64) (err error) {
	if from < j.Start() {
		return fmt.Errorf("hdfs: journal truncated past seq %d (retained from %d)", from, j.Start())
	}
	c.replaying = true
	defer func() { c.replaying = false }()
	first := true
	j.Each(from, func(e *auditlog.Entry) bool {
		err = c.replayEntry(e, first)
		first = false
		return err == nil
	})
	return err
}

// replayEntry is the one replay step: e must carry the sequence the cluster
// expects next — the checkpoint's position for the first entry of a tail
// (any, when the checkpoint recorded none), the one after its predecessor
// for the rest — and then it is applied and the expected sequence moves
// past it.
func (c *Cluster) replayEntry(e *auditlog.Entry, first bool) error {
	if c.ckptJournalSeq != 0 && e.Seq != c.ckptJournalSeq {
		if first {
			return fmt.Errorf("hdfs: journal tail starts at seq %d, checkpoint expects %d", e.Seq, c.ckptJournalSeq)
		}
		return fmt.Errorf("hdfs: journal gap: entry %d follows %d", e.Seq, c.ckptJournalSeq-1)
	}
	if err := c.applyEntry(*e); err != nil {
		return fmt.Errorf("hdfs: replay seq %d (%s): %w", e.Seq, e.Op, err)
	}
	c.ckptJournalSeq = e.Seq + 1
	return nil
}

// applyEntry validates one journal entry, then applies it through the
// transition the live path took to emit it.
func (c *Cluster) applyEntry(e auditlog.Entry) error {
	switch e.Op {
	case auditlog.OpFileAdd:
		if e.File != len(c.fileByID) {
			return fmt.Errorf("intern ID %d, cluster at %d", e.File, len(c.fileByID))
		}
		if _, ok := c.files[e.Path]; ok || e.Path == "" {
			return fmt.Errorf("bad or duplicate path %q", e.Path)
		}
		if e.Target < 1 {
			return fmt.Errorf("target %d", e.Target)
		}
		if !(e.Size > 0) || math.IsInf(e.Size, 1) { // checkpoint decode refuses the same
			return fmt.Errorf("file size %v", e.Size)
		}
		c.registerFile(&INode{Path: e.Path, Size: e.Size, TargetRepl: e.Target, CreatedAt: e.Time})
	case auditlog.OpFileDrop, auditlog.OpRename, auditlog.OpSetTarget, auditlog.OpEncodeGeom,
		auditlog.OpEncodeDone, auditlog.OpDecodeStart, auditlog.OpClearGeom, auditlog.OpBlockAdd:
		if e.File < 0 || e.File >= len(c.fileByID) || c.fileByID[e.File] == nil {
			return fmt.Errorf("unknown file intern ID %d", e.File)
		}
		return c.applyFileEntry(c.fileByID[e.File], e)
	case auditlog.OpBlockDrop:
		id := BlockID(e.Block)
		f := c.owner(id)
		if f == nil {
			return fmt.Errorf("unknown block %d", e.Block)
		}
		if n := len(c.replicas[id]); n > 0 {
			return fmt.Errorf("block %d dropped with %d replicas attached", id, n)
		}
		c.dropBlock(id)
		// The live paths drop a file's blocks, then the file or its
		// parity list, within one operation. Replay unlinks each block as
		// it goes, so no file lists a dropped block between entries, and
		// re-reads the file's first data block, which carries its
		// replication. The blocks left keep their positions: a position
		// is where the block was minted, not an index into the list.
		f.Blocks = removeID(f.Blocks, id)
		if f.stripe != nil {
			f.stripe.Parity = removeID(f.stripe.Parity, id)
		}
		if len(f.Blocks) > 0 {
			c.reassessAboveDefault(f.Blocks[0])
		}
	case auditlog.OpReplicaAdd, auditlog.OpReplicaDrop, auditlog.OpReported,
		auditlog.OpNodeState, auditlog.OpNodeStale:
		d := c.Datanode(DatanodeID(e.Node))
		if d == nil {
			return fmt.Errorf("unknown node %d", e.Node)
		}
		return c.applyNodeEntry(d, e)
	case auditlog.OpFedMoveIntent, auditlog.OpFedMoveCommit, auditlog.OpFedMoveTombstone:
		// Protocol markers: no namespace mutation, but the pending-move
		// table is durable protocol state a promoted standby resolves from.
		if e.Path == "" || e.Dst == "" {
			return fmt.Errorf("marker %s without src/dst", e.Op)
		}
		c.applyMoveMarker(e)
	default:
		return fmt.Errorf("unknown op %d", e.Op)
	}
	return nil
}

// applyFileEntry applies an entry about live file f.
func (c *Cluster) applyFileEntry(f *INode, e auditlog.Entry) error {
	switch e.Op {
	case auditlog.OpFileDrop:
		if n := len(f.Blocks) + len(f.Parity()); n > 0 {
			return fmt.Errorf("file %q dropped with %d live blocks", f.Path, n)
		}
		c.dropFile(f)
	case auditlog.OpRename:
		if _, ok := c.files[e.Dst]; ok || e.Dst == "" {
			return fmt.Errorf("bad or occupied destination %q", e.Dst)
		}
		c.renameFile(f, e.Dst)
	case auditlog.OpSetTarget:
		if e.Target < 1 {
			return fmt.Errorf("target %d", e.Target)
		}
		c.setTarget(f, e.Target)
	case auditlog.OpEncodeGeom:
		if e.K <= 0 || e.M <= 0 {
			return fmt.Errorf("geometry %d+%d", e.K, e.M)
		}
		c.setGeometry(f, e.K, e.M)
	case auditlog.OpEncodeDone, auditlog.OpDecodeStart:
		c.setEncoded(f, e.Op == auditlog.OpEncodeDone)
	case auditlog.OpClearGeom:
		if n := len(f.Parity()); n > 0 {
			return fmt.Errorf("geometry of %q cleared with %d live parity blocks", f.Path, n)
		}
		c.clearGeometry(f)
	case auditlog.OpBlockAdd:
		if BlockID(e.Block) != c.nextBlock {
			return fmt.Errorf("block %d minted out of sequence (next %d)", e.Block, c.nextBlock)
		}
		pos, err := c.blockPosition(f, e)
		if err != nil {
			return err
		}
		c.addBlock(f, pos)
	}
	return nil
}

// blockPosition returns the position (see blockRef) an OpBlockAdd entry
// takes in f — the next data block, or parity Index−len(Blocks) of the
// stripe layout — once f has room there (a data block short of the count
// its size implies, a parity within its stripes' layout) and derives the
// entry's Index, Size and Group for it.
func (c *Cluster) blockPosition(f *INode, e auditlog.Entry) (int32, error) {
	n := len(f.Blocks)
	pos, room := int32(n), n < blockCount(f.Size, BlockSize)
	if j := e.Index - n; e.Flag {
		k, m := f.Geometry()
		pos, room = ^int32(j), k > 0 && m > 0 && j >= 0 && j <= math.MaxInt32 && j/m < (n+k-1)/k
	}
	if !room {
		return 0, fmt.Errorf("no room in %q for block %d (index %d, parity %t)", f.Path, e.Block, e.Index, e.Flag)
	}
	if index, size, group := c.geometry(f, pos); e.Index != index || e.Size != size || e.Group != group {
		return 0, fmt.Errorf("block %d of %q: index %d, size %v, group %d; the file derives %d, %v, %d",
			e.Block, f.Path, e.Index, e.Size, e.Group, index, size, group)
	}
	return pos, nil
}

// applyNodeEntry applies an entry about datanode d.
func (c *Cluster) applyNodeEntry(d *Datanode, e auditlog.Entry) error {
	switch e.Op {
	case auditlog.OpNodeState:
		s := NodeState(e.State)
		if s < StateActive || s > StateDown {
			return fmt.Errorf("unknown state %d", e.State)
		}
		if e.Flag && d.State != StateDown {
			return fmt.Errorf("node %d restarted while %s, not down", d.ID, d.State)
		}
		c.setState(d, s, e.Flag)
		return nil
	case auditlog.OpNodeStale:
		c.setStale(d, e.Flag)
		return nil
	}
	id := BlockID(e.Block)
	switch {
	case !c.live(id):
		return fmt.Errorf("unknown block %d", e.Block)
	case e.Op == auditlog.OpReplicaDrop:
		c.detachReplica(id, d.ID)
	case e.Op == auditlog.OpReported && !d.blocks.Has(id):
		return fmt.Errorf("node %d reported block %d it does not hold", d.ID, id)
	case e.Op == auditlog.OpReported:
		c.markReported(d, id)
	case d.State == StateDown:
		return fmt.Errorf("replica of block %d added on down node %d", id, d.ID)
	default:
		c.attachReplica(id, d.ID)
	}
	return nil
}

func removeID(ids []BlockID, bid BlockID) []BlockID {
	for i, v := range ids {
		if v == bid {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}
