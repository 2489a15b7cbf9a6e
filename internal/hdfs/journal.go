package hdfs

import (
	"fmt"

	"erms/internal/auditlog"
)

// Write-ahead journal integration. When a Journal is attached, every
// durable namenode mutation — the exact state StateDigest covers — emits
// one typed entry at its mutation chokepoint (registerFile, addBlock,
// attachReplica, ...), never at the API surface, so every internal path
// (unwind, drain, heartbeat death) is journaled for free. ReplayJournal
// applies entries through the same internal mutators with re-emission
// suppressed, which makes replay idempotent where the mutators are
// (attach/detach guard on membership) and strictly validated where they
// are not (file intern IDs and block IDs must arrive in sequence).
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
// same internal mutators the live cluster used; afterwards every derived
// index is rebuilt. The first entry must match the checkpoint's recorded
// journal position (RestoredJournalSeq) so a tail can never be applied to
// the wrong base state; replay stops with an error on the first entry
// that fails validation.
func (c *Cluster) ReplayJournal(entries []auditlog.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	if c.ckptJournalSeq != 0 && entries[0].Seq != c.ckptJournalSeq {
		return fmt.Errorf("hdfs: journal tail starts at seq %d, checkpoint expects %d",
			entries[0].Seq, c.ckptJournalSeq)
	}
	c.replaying = true
	defer func() { c.replaying = false }()
	prev := entries[0].Seq - 1
	for _, e := range entries {
		if e.Seq != prev+1 {
			return fmt.Errorf("hdfs: journal gap: entry %d follows %d", e.Seq, prev)
		}
		prev = e.Seq
		if err := c.applyEntry(e); err != nil {
			return fmt.Errorf("hdfs: replay seq %d (%s): %w", e.Seq, e.Op, err)
		}
	}
	c.ckptJournalSeq = prev + 1

	c.rebuildDerived()
	return nil
}

// applyEntry applies one journal entry to namenode state.
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
		f := &INode{
			Path:       e.Path,
			Size:       e.Size,
			TargetRepl: e.Target,
			CreatedAt:  e.Time,
		}
		c.registerFile(f)

	case auditlog.OpFileDrop:
		f, err := c.fileEntry(e)
		if err != nil {
			return err
		}
		for _, ids := range [][]BlockID{f.Blocks, f.Parity} {
			for _, bid := range ids {
				if c.blocks[bid] != nil {
					return fmt.Errorf("file %q dropped with live block %d", f.Path, bid)
				}
			}
		}
		delete(c.files, f.Path)
		c.fileByID[f.id] = nil
		c.pathsCache = nil

	case auditlog.OpRename:
		f, err := c.fileEntry(e)
		if err != nil {
			return err
		}
		if _, ok := c.files[e.Dst]; ok || e.Dst == "" {
			return fmt.Errorf("bad or occupied destination %q", e.Dst)
		}
		delete(c.files, f.Path)
		f.Path = e.Dst
		c.files[e.Dst] = f
		c.pathsCache = nil
		for _, ids := range [][]BlockID{f.Blocks, f.Parity} {
			for _, bid := range ids {
				c.blocks[bid].File = e.Dst
			}
		}

	case auditlog.OpSetTarget:
		f, err := c.fileEntry(e)
		if err != nil {
			return err
		}
		if e.Target < 1 {
			return fmt.Errorf("target %d", e.Target)
		}
		f.TargetRepl = e.Target

	case auditlog.OpEncodeGeom:
		f, err := c.fileEntry(e)
		if err != nil {
			return err
		}
		if e.K <= 0 || e.M <= 0 {
			return fmt.Errorf("geometry %d+%d", e.K, e.M)
		}
		f.EncodeK, f.EncodeM = e.K, e.M

	case auditlog.OpEncodeDone:
		f, err := c.fileEntry(e)
		if err != nil {
			return err
		}
		f.Encoded = true

	case auditlog.OpDecodeStart:
		f, err := c.fileEntry(e)
		if err != nil {
			return err
		}
		f.Encoded = false

	case auditlog.OpClearGeom:
		f, err := c.fileEntry(e)
		if err != nil {
			return err
		}
		f.EncodeK, f.EncodeM = 0, 0
		f.Parity = nil

	case auditlog.OpBlockAdd:
		if BlockID(e.Block) != c.nextBlock {
			return fmt.Errorf("block %d minted out of sequence (next %d)", e.Block, c.nextBlock)
		}
		f, err := c.fileEntry(e)
		if err != nil {
			return err
		}
		b := &Block{
			ID: BlockID(e.Block), File: f.Path, Index: e.Index, Size: e.Size,
			Parity: e.Flag, Group: e.Group, fileID: f.id,
		}
		c.addBlock(b)
		if b.Parity {
			f.Parity = append(f.Parity, b.ID)
		} else {
			f.Blocks = append(f.Blocks, b.ID)
		}

	case auditlog.OpBlockDrop:
		bid := BlockID(e.Block)
		if bid < 0 || int(bid) >= len(c.blocks) || c.blocks[bid] == nil {
			return fmt.Errorf("unknown block %d", e.Block)
		}
		b := c.blocks[bid]
		if len(c.replicas[bid]) > 0 {
			return fmt.Errorf("block %d dropped with %d replicas attached", bid, len(c.replicas[bid]))
		}
		// The live paths drop a block's owning slice wholesale (file
		// delete, parity clear) after dropping its blocks; replay removes
		// the ID eagerly so intermediate state stays self-consistent.
		if f := c.fileByID[b.fileID]; f != nil {
			f.Blocks = removeID(f.Blocks, bid)
			f.Parity = removeID(f.Parity, bid)
		}
		c.dropBlock(bid)

	case auditlog.OpReplicaAdd, auditlog.OpReplicaDrop:
		bid := BlockID(e.Block)
		if bid < 0 || int(bid) >= len(c.blocks) || c.blocks[bid] == nil {
			return fmt.Errorf("unknown block %d", e.Block)
		}
		if e.Node < 0 || e.Node >= len(c.datanodes) {
			return fmt.Errorf("unknown node %d", e.Node)
		}
		if e.Op == auditlog.OpReplicaAdd {
			c.attachReplica(c.blocks[bid], DatanodeID(e.Node))
		} else {
			c.detachReplica(c.blocks[bid], DatanodeID(e.Node))
		}

	case auditlog.OpNodeState:
		if e.Node < 0 || e.Node >= len(c.datanodes) {
			return fmt.Errorf("unknown node %d", e.Node)
		}
		s := NodeState(e.State)
		if s < StateActive || s > StateDecommissioned {
			return fmt.Errorf("unknown state %d", e.State)
		}
		d := c.datanodes[e.Node]
		d.State = s
		if s == StateActive {
			// The journal does not carry energy bookkeeping, and the
			// checkpoint's activeSince predates intervals ActiveTime has
			// already absorbed. Re-stamping the activation keeps the
			// uptime invariant (ActiveTime + open interval <= now); the
			// gap between the real transition and replay time is simply
			// not billed as active.
			d.activeSince = c.clock.Now()
			d.lastHeartbeat = c.clock.Now()
		}
		if s == StateDown {
			// Mirrors declareDead: staleness ends at death. Fault.Crashed
			// is truth the journal does not carry; it stays whatever the
			// checkpoint said until a fresh restart.
			d.Stale = false
		}
		if e.Flag { // fresh restart: wipe the previous incarnation
			d.Stale = false
			d.fault.Crashed = false
			d.blocks = blockSet{}
			d.corrupt = make(map[BlockID]bool)
			d.reported = make(map[BlockID]bool)
			d.Used = 0
		}

	case auditlog.OpNodeStale:
		if e.Node < 0 || e.Node >= len(c.datanodes) {
			return fmt.Errorf("unknown node %d", e.Node)
		}
		c.datanodes[e.Node].Stale = e.Flag

	case auditlog.OpReported:
		bid := BlockID(e.Block)
		if bid < 0 || int(bid) >= len(c.blocks) || c.blocks[bid] == nil {
			return fmt.Errorf("unknown block %d", e.Block)
		}
		if e.Node < 0 || e.Node >= len(c.datanodes) {
			return fmt.Errorf("unknown node %d", e.Node)
		}
		d := c.datanodes[e.Node]
		if !d.blocks.Has(bid) {
			return fmt.Errorf("node %d reported block %d it does not hold", e.Node, bid)
		}
		d.reported[bid] = true

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

// fileEntry resolves an entry's file intern ID to a live INode.
func (c *Cluster) fileEntry(e auditlog.Entry) (*INode, error) {
	if e.File < 0 || e.File >= len(c.fileByID) || c.fileByID[e.File] == nil {
		return nil, fmt.Errorf("unknown file intern ID %d", e.File)
	}
	return c.fileByID[e.File], nil
}

func removeID(ids []BlockID, bid BlockID) []BlockID {
	for i, v := range ids {
		if v == bid {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}
