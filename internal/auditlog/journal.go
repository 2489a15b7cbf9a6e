package auditlog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"strings"
	"time"
)

// The human-readable audit log (Record) is what the Data Judge consumes; it
// names files by path and deliberately omits block-level detail. Failover
// needs more: a journal of every namespace-changing operation, precise
// enough that replaying it against a checkpoint reconstructs the namenode's
// metadata bit for bit. Entry is that record — a typed write-ahead log
// entry, the second product of the same mutation chokepoints that feed the
// audit log.

// Op identifies the kind of namespace mutation a journal Entry records.
type Op uint8

// The journaled operations. Together they cover every field of namenode
// metadata that a checkpoint serializes; anything not expressible here
// (corruption ground truth, crash flags, heartbeat ages) is by design
// invisible to a standby and excluded from the replayable state digest.
const (
	opInvalid Op = iota
	// OpFileAdd interns a new INode: Path, Size, Target (replication),
	// File (the intern ID the live namenode assigned, for validation).
	// Time doubles as the file's creation stamp.
	OpFileAdd
	// OpFileDrop removes file File (Path kept for readability). Its blocks
	// are dropped by preceding OpBlockDrop entries.
	OpFileDrop
	// OpRename moves file File from Path to Dst.
	OpRename
	// OpSetTarget sets file File's target replication to Target.
	OpSetTarget
	// OpEncodeGeom records erasure geometry (K, M) chosen for file File.
	OpEncodeGeom
	// OpEncodeDone marks file File's encoding complete (Encoded=true).
	OpEncodeDone
	// OpDecodeStart clears file File's Encoded flag (geometry is kept,
	// matching DecodeFile).
	OpDecodeStart
	// OpClearGeom clears file File's erasure geometry (CancelEncoding).
	OpClearGeom
	// OpBlockAdd mints block Block for file File: Size, Index, and for
	// parity blocks Flag=true with stripe Group.
	OpBlockAdd
	// OpBlockDrop deletes block Block and removes it from its owner's
	// block or parity list.
	OpBlockDrop
	// OpReplicaAdd lands a replica of block Block on node Node.
	OpReplicaAdd
	// OpReplicaDrop removes block Block's replica from node Node.
	OpReplicaDrop
	// OpNodeState transitions node Node to lifecycle state State
	// (hdfs.NodeState numeric value). Flag marks a restart-style fresh
	// start that also wipes the node's reported-corrupt set.
	OpNodeState
	// OpNodeStale flips node Node's stale flag to Flag.
	OpNodeStale
	// OpReported records that node Node reported its last copy of block
	// Block corrupt (the keep-last-copy branch of corruption handling).
	OpReported
	// The federation move markers journal the cross-shard rename protocol
	// in the SOURCE shard's journal. They mutate no namespace state of
	// their own — replay validates them and tracks the pending-move table —
	// but they are durable protocol facts: a standby promoted mid-move uses
	// them to decide rollback (intent without commit) versus roll-forward
	// (commit without tombstone). Added after JournalVersion 2 shipped;
	// additive ops keep the wire format compatible because version-2
	// decoders already reject unknown ops loudly rather than guessing.
	//
	// OpFedMoveIntent opens a move of file Path (owned by this shard) to
	// Dst, whose owner is shard Node.
	OpFedMoveIntent
	// OpFedMoveCommit is the commit point of the move Path -> Dst: the
	// copy exists at the destination shard's staging path and the move
	// must now roll forward.
	OpFedMoveCommit
	// OpFedMoveTombstone closes the move Path -> Dst. Flag records how:
	// true = rolled forward (file now lives at Dst in shard Node), false =
	// rolled back (file stayed at Path).
	OpFedMoveTombstone
	opSentinel // one past the last valid op
)

var opNames = [...]string{
	OpFileAdd:     "fileAdd",
	OpFileDrop:    "fileDrop",
	OpRename:      "rename",
	OpSetTarget:   "setTarget",
	OpEncodeGeom:  "encodeGeom",
	OpEncodeDone:  "encodeDone",
	OpDecodeStart: "decodeStart",
	OpClearGeom:   "clearGeom",
	OpBlockAdd:    "blockAdd",
	OpBlockDrop:   "blockDrop",
	OpReplicaAdd:  "replicaAdd",
	OpReplicaDrop: "replicaDrop",
	OpNodeState:   "nodeState",
	OpNodeStale:   "nodeStale",
	OpReported:    "reported",

	OpFedMoveIntent:    "fedMoveIntent",
	OpFedMoveCommit:    "fedMoveCommit",
	OpFedMoveTombstone: "fedMoveTombstone",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o names a known operation.
func (o Op) Valid() bool { return o > opInvalid && o < opSentinel }

// Entry is one write-ahead journal record. Fields are a union across ops;
// each Op documents which it reads. Unused fields stay zero and cost one
// byte each on the wire.
type Entry struct {
	Seq    uint64        // assigned by Journal.Append; dense, starts at 1
	Epoch  uint64        // writer epoch that produced the entry (fencing)
	Time   time.Duration // virtual time of the mutation
	Op     Op
	Path   string  // file path (OpFileAdd, OpFileDrop, OpRename source)
	Dst    string  // rename destination
	File   int     // interned file ID
	Block  int64   // block ID
	Node   int     // datanode ID
	State  int     // node lifecycle state (OpNodeState)
	Target int     // replication target (OpFileAdd, OpSetTarget)
	K      int     // erasure data shards (OpEncodeGeom)
	M      int     // erasure parity shards (OpEncodeGeom)
	Index  int     // block index within its file (OpBlockAdd)
	Group  int     // parity stripe group (OpBlockAdd)
	Size   float64 // bytes (OpFileAdd file size, OpBlockAdd block size)
	Flag   bool    // op-specific: parity, stale, fresh-restart
}

// String renders the entry for debugging and journal dumps.
func (e Entry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d e%d %s %s", e.Seq, e.Epoch, e.Time, e.Op)
	switch e.Op {
	case OpFileAdd:
		fmt.Fprintf(&b, " file=%d path=%s size=%.0f target=%d", e.File, e.Path, e.Size, e.Target)
	case OpFileDrop:
		fmt.Fprintf(&b, " file=%d path=%s", e.File, e.Path)
	case OpRename:
		fmt.Fprintf(&b, " file=%d %s -> %s", e.File, e.Path, e.Dst)
	case OpSetTarget:
		fmt.Fprintf(&b, " file=%d target=%d", e.File, e.Target)
	case OpEncodeGeom:
		fmt.Fprintf(&b, " file=%d k=%d m=%d", e.File, e.K, e.M)
	case OpEncodeDone, OpDecodeStart, OpClearGeom:
		fmt.Fprintf(&b, " file=%d", e.File)
	case OpBlockAdd:
		fmt.Fprintf(&b, " block=%d file=%d index=%d size=%.0f parity=%t group=%d",
			e.Block, e.File, e.Index, e.Size, e.Flag, e.Group)
	case OpBlockDrop:
		fmt.Fprintf(&b, " block=%d", e.Block)
	case OpReplicaAdd, OpReplicaDrop, OpReported:
		fmt.Fprintf(&b, " block=%d node=%d", e.Block, e.Node)
	case OpNodeState:
		fmt.Fprintf(&b, " node=%d state=%d fresh=%t", e.Node, e.State, e.Flag)
	case OpNodeStale:
		fmt.Fprintf(&b, " node=%d stale=%t", e.Node, e.Flag)
	case OpFedMoveIntent, OpFedMoveCommit:
		fmt.Fprintf(&b, " %s -> %s shard=%d", e.Path, e.Dst, e.Node)
	case OpFedMoveTombstone:
		fmt.Fprintf(&b, " %s -> %s shard=%d forward=%t", e.Path, e.Dst, e.Node, e.Flag)
	}
	return b.String()
}

// Journal accumulates entries in memory, stamping each with a dense
// sequence number. A checkpoint records the journal sequence at snapshot
// time; a standby restores the checkpoint and replays Tail(seq) to catch
// up — exactly the HDFS fsimage + edits model.
//
// Entries live in fixed-capacity segments, so Append never moves an entry
// already stored and TruncateTo frees whole segments: the cost of a
// mutation does not depend on how long the journal has grown.
type Journal struct {
	segs  [][]Entry // each of cap segmentCap; all but the last are full
	base  uint64    // Seq held (or once held) by segs[0][0]
	start uint64    // first retained Seq; next when nothing is retained
	next  uint64    // Seq the next Append will assign
	epoch uint64    // current writer epoch; Append stamps it on every entry
	subs  []func(Entry)
}

// segmentCap is the journal's segment size in entries (about 150 KB).
const segmentCap = 1024

// NewJournal returns an empty journal whose first entry will get Seq 1,
// at epoch 1.
func NewJournal() *Journal { return NewJournalAt(1) }

// NewJournalAt returns an empty journal whose first entry will get Seq
// seq. A promoted standby uses it to continue the failed namenode's
// sequence numbering after replaying its tail (and then SetEpoch/BumpEpoch
// to fence the old writer). Entries before seq were never here: Tail of an
// earlier position is unavailable, not empty.
func NewJournalAt(seq uint64) *Journal {
	seq = max(seq, 1)
	return &Journal{base: seq, start: seq, next: seq, epoch: 1}
}

// Epoch returns the journal's current writer epoch. The journal models the
// shared edit-log service (HDFS's quorum journal): whichever namenode's
// writer epoch matches the journal's is the legitimate writer; anyone
// behind is fenced.
func (j *Journal) Epoch() uint64 { return j.epoch }

// SetEpoch sets the writer epoch. Epochs never move backwards; lower
// values are ignored.
func (j *Journal) SetEpoch(e uint64) {
	if e > j.epoch {
		j.epoch = e
	}
}

// BumpEpoch advances the writer epoch by one — the fencing step of a
// standby promotion — and returns the new epoch. Entries appended by a
// writer still holding the old epoch are detectably stale.
func (j *Journal) BumpEpoch() uint64 {
	j.epoch++
	return j.epoch
}

// Append stamps e with the next sequence number and the current epoch,
// stores it, and notifies subscribers. The stamped entry is returned.
func (j *Journal) Append(e Entry) Entry {
	e.Seq = j.next
	e.Epoch = j.epoch
	j.next++
	si := int((e.Seq - j.base) / segmentCap)
	if si == len(j.segs) {
		j.segs = append(j.segs, make([]Entry, 0, segmentCap))
	}
	j.segs[si] = append(j.segs[si], e)
	for _, fn := range j.subs {
		fn(e)
	}
	return e
}

// Subscribe registers fn to receive every future entry.
func (j *Journal) Subscribe(fn func(Entry)) { j.subs = append(j.subs, fn) }

// NextSeq returns the sequence number the next Append will assign. A
// checkpoint taken now pairs with Tail(NextSeq()) later.
func (j *Journal) NextSeq() uint64 { return j.next }

// Len returns the number of retained entries.
func (j *Journal) Len() int { return int(j.next - j.start) }

// Each calls fn on every retained entry with Seq >= from, in order and in
// place — nothing is copied — until fn returns false. fn must not mutate
// the entry or keep the pointer.
func (j *Journal) Each(from uint64, fn func(*Entry) bool) {
	for seq := max(from, j.start); seq < j.next; seq++ {
		off := seq - j.base
		if !fn(&j.segs[off/segmentCap][off%segmentCap]) {
			return
		}
	}
}

// Entries returns a copy of the retained entries.
func (j *Journal) Entries() []Entry { return j.Tail(j.start) }

// Tail returns a copy of the retained entries with Seq >= from. It returns
// nil if from predates the retained window's start (truncated away, or
// older than a journal made by NewJournalAt) — callers should treat that
// as "tail unavailable" and fall back to a full checkpoint. An empty (but
// non-nil) slice means the tail is valid and simply has nothing to replay.
func (j *Journal) Tail(from uint64) []Entry {
	if from < j.start {
		return nil
	}
	out := make([]Entry, 0, j.next-min(from, j.next))
	j.Each(from, func(e *Entry) bool {
		out = append(out, *e)
		return true
	})
	return out
}

// TruncateTo discards retained entries with Seq < upTo, bounding memory
// once a checkpoint has made them redundant. Sequence numbering continues
// unaffected, and the retained window's start advances to upTo even when
// everything is dropped — Tail(upTo) stays valid (and empty) afterwards.
// Memory is released a whole segment at a time.
func (j *Journal) TruncateTo(upTo uint64) {
	if upTo <= j.start {
		return
	}
	j.start = min(upTo, j.next)
	drop := int((j.start - j.base) / segmentCap)
	j.segs = slices.Delete(j.segs, 0, drop)
	j.base += uint64(drop) * segmentCap
}

// Journal wire format: a magic/version header, a varint entry count, each
// entry's fields as varints (strings length-prefixed, floats as IEEE bits),
// and a trailing FNV-1a checksum of everything before it. The format shares
// its versioning discipline with the checkpoint: any change to entry
// semantics bumps JournalVersion, and decoders reject versions they do not
// know rather than guessing.
const (
	journalMagic = "ERMSJRNL"
	// JournalVersion 2 added the per-entry writer Epoch (journal-epoch
	// fencing); version 1 streams are rejected rather than guessed at.
	JournalVersion = 2
)

const (
	maxJournalEntries = 1 << 28 // decoder sanity bound
	maxJournalString  = 1 << 20
)

// EncodeEntries writes entries to w in the versioned journal format: the
// stream is appended into one slice, hashed once and written once.
func EncodeEntries(w io.Writer, entries []Entry) error {
	b := append(make([]byte, 0, 64+48*len(entries)), journalMagic...)
	b = binary.AppendUvarint(b, JournalVersion)
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for i := range entries {
		e := &entries[i]
		b = binary.AppendUvarint(b, e.Seq)
		b = binary.AppendUvarint(b, e.Epoch)
		b = binary.AppendVarint(b, int64(e.Time))
		b = binary.AppendUvarint(b, uint64(e.Op))
		for _, s := range [2]string{e.Path, e.Dst} {
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		}
		for _, v := range [9]int64{int64(e.File), e.Block, int64(e.Node), int64(e.State),
			int64(e.Target), int64(e.K), int64(e.M), int64(e.Index), int64(e.Group)} {
			b = binary.AppendVarint(b, v)
		}
		b = binary.AppendUvarint(b, math.Float64bits(e.Size))
		if e.Flag {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	h := fnv.New64a()
	h.Write(b)
	// Checksum trailer, outside the hashed region.
	if _, err := w.Write(binary.LittleEndian.AppendUint64(b, h.Sum64())); err != nil {
		return fmt.Errorf("auditlog: journal encode: %w", err)
	}
	return nil
}

// DecodeEntries reads a journal written by EncodeEntries. Corrupt or
// truncated input returns an error; on success the entries are exactly as
// encoded. The whole stream is read into memory first so the checksum can
// be verified before any field is trusted.
func DecodeEntries(r io.Reader) ([]Entry, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("auditlog: journal decode: %w", err)
	}
	if len(data) < len(journalMagic)+8 {
		return nil, fmt.Errorf("auditlog: journal decode: input too short (%d bytes)", len(data))
	}
	payload, trailer := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(payload)
	if got, want := binary.LittleEndian.Uint64(trailer), h.Sum64(); got != want {
		return nil, fmt.Errorf("auditlog: journal decode: checksum mismatch (%#x != %#x)", got, want)
	}
	br := bytes.NewReader(payload)
	fail := func(what string, err error) ([]Entry, error) {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("auditlog: journal decode %s: %w", what, err)
	}
	magic := make([]byte, len(journalMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fail("magic", err)
	}
	if string(magic) != journalMagic {
		return nil, fmt.Errorf("auditlog: journal decode: bad magic %q", magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return fail("version", err)
	}
	if version != JournalVersion {
		return nil, fmt.Errorf("auditlog: journal decode: unsupported version %d (want %d)", version, JournalVersion)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return fail("entry count", err)
	}
	if count > maxJournalEntries {
		return nil, fmt.Errorf("auditlog: journal decode: implausible entry count %d", count)
	}
	readString := func(what string) (string, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return "", fmt.Errorf("auditlog: journal decode %s length: %w", what, err)
		}
		if n > maxJournalString {
			return "", fmt.Errorf("auditlog: journal decode: %s length %d too large", what, n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", fmt.Errorf("auditlog: journal decode %s: %w", what, err)
		}
		return string(b), nil
	}
	entries := make([]Entry, 0, min(int(count), 4096))
	for i := uint64(0); i < count; i++ {
		var e Entry
		var iv int64
		var uv uint64
		read := func(what string, dst *int64) bool {
			v, rerr := binary.ReadVarint(br)
			if rerr != nil {
				err = fmt.Errorf("auditlog: journal decode entry %d %s: %w", i, what, rerr)
				return false
			}
			*dst = v
			return true
		}
		if uv, err = binary.ReadUvarint(br); err != nil {
			return fail(fmt.Sprintf("entry %d seq", i), err)
		}
		e.Seq = uv
		if uv, err = binary.ReadUvarint(br); err != nil {
			return fail(fmt.Sprintf("entry %d epoch", i), err)
		}
		e.Epoch = uv
		if !read("time", &iv) {
			return nil, err
		}
		e.Time = time.Duration(iv)
		if uv, err = binary.ReadUvarint(br); err != nil {
			return fail(fmt.Sprintf("entry %d op", i), err)
		}
		e.Op = Op(uv)
		if !e.Op.Valid() {
			return nil, fmt.Errorf("auditlog: journal decode entry %d: unknown op %d", i, uv)
		}
		if e.Path, err = readString("path"); err != nil {
			return nil, err
		}
		if e.Dst, err = readString("dst"); err != nil {
			return nil, err
		}
		if !read("file", &iv) {
			return nil, err
		}
		e.File = int(iv)
		if !read("block", &e.Block) {
			return nil, err
		}
		if !read("node", &iv) {
			return nil, err
		}
		e.Node = int(iv)
		if !read("state", &iv) {
			return nil, err
		}
		e.State = int(iv)
		if !read("target", &iv) {
			return nil, err
		}
		e.Target = int(iv)
		if !read("k", &iv) {
			return nil, err
		}
		e.K = int(iv)
		if !read("m", &iv) {
			return nil, err
		}
		e.M = int(iv)
		if !read("index", &iv) {
			return nil, err
		}
		e.Index = int(iv)
		if !read("group", &iv) {
			return nil, err
		}
		e.Group = int(iv)
		if uv, err = binary.ReadUvarint(br); err != nil {
			return fail(fmt.Sprintf("entry %d size", i), err)
		}
		e.Size = math.Float64frombits(uv)
		if uv, err = binary.ReadUvarint(br); err != nil {
			return fail(fmt.Sprintf("entry %d flag", i), err)
		}
		if uv > 1 {
			return nil, fmt.Errorf("auditlog: journal decode entry %d: bad flag %d", i, uv)
		}
		e.Flag = uv == 1
		entries = append(entries, e)
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("auditlog: journal decode: %d trailing bytes after %d entries", br.Len(), count)
	}
	return entries, nil
}
