package auditlog

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strings"
	"time"
	"unsafe"

	"erms/internal/wire"
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
// each Op documents which it reads. Unused fields stay zero: they cost one
// byte each on the wire and nothing in a Journal.
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
// Like HDFS's edits log, the journal holds bytes, not structs. Entries live
// in segments of segmentCap, each a buffer of compact records (see
// appendRecord) beside a table of the Path and Dst strings they name. An
// entry costs about 15 bytes where an Entry struct takes 152. Append never
// moves a record already stored and TruncateTo frees whole segments, so the
// cost of a mutation does not depend on how long the journal has grown.
// Reads decode: Each hands its callback one scratch Entry, and Tail and
// Entries fill a slice.
type Journal struct {
	segs  []segment // all but the last hold segmentCap records
	base  uint64    // Seq held (or once held) by segs[0]'s first record
	start uint64    // first retained Seq; next when nothing is retained
	next  uint64    // Seq the next Append will assign
	epoch uint64    // current writer epoch; Append stamps it on every entry
	// Time and Epoch of the last record appended: the next record stores
	// its own as differences from these (from zero in a fresh segment).
	prevTime  time.Duration
	prevEpoch uint64
	// spare holds the buffers the last segment to fill was built in,
	// emptied: that segment kept trimmed copies, and the next one fills
	// these, so a segment allocates about what it keeps.
	spare segment
}

// segment is up to segmentCap consecutive entries. A record holds no
// string: each Path and Dst it names is the next one in strs, which shares
// the appender's string bytes, so decoding allocates nothing.
type segment struct {
	recs []byte
	strs []string
}

// A journal's first segment's record buffer and string table are sized
// for the churn-failover mix: about 6 KB of records and 480 strings a
// segment.
const (
	segmentCap   = 1024 // entries
	segmentBytes = 8 << 10
	segmentStrs  = segmentCap / 2
)

// A record is the op byte, a uvarint mask with bit i set when field i of
// the Entry is not zero, then those fields in bit order, so a record
// carries only what its op uses. Integers are zigzag varints, Size is its
// IEEE bits byte-reversed (small for round sizes, exact for -0 and NaN
// payloads) as a uvarint, and Path, Dst and Flag have no payload. Time and
// Epoch are differences from the previous record's, so a burst of
// mutations at one instant stores no time at all. Seq is the position.
// The seven fields the frequent ops use fill the mask's first byte.
const (
	fTime = iota
	fBlock
	fNode
	fFile
	fSize
	fIndex
	fPath
	fTarget
	fFlag
	fDst
	fState
	fK
	fM
	fGroup
	fEpoch
	numFields
)

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendRecord encodes e at the end of segment s.
func (j *Journal) appendRecord(s *segment, e *Entry) {
	var flag uint64
	if e.Flag {
		flag = 1
	}
	v := [numFields]uint64{
		fTime:   zigzag(int64(e.Time - j.prevTime)),
		fBlock:  zigzag(e.Block),
		fNode:   zigzag(int64(e.Node)),
		fFile:   zigzag(int64(e.File)),
		fSize:   bits.ReverseBytes64(math.Float64bits(e.Size)),
		fIndex:  zigzag(int64(e.Index)),
		fPath:   uint64(len(e.Path)),
		fTarget: zigzag(int64(e.Target)),
		fFlag:   flag,
		fDst:    uint64(len(e.Dst)),
		fState:  zigzag(int64(e.State)),
		fK:      zigzag(int64(e.K)),
		fM:      zigzag(int64(e.M)),
		fGroup:  zigzag(int64(e.Group)),
		fEpoch:  e.Epoch - j.prevEpoch,
	}
	var mask uint64
	var buf [numFields * binary.MaxVarintLen64]byte
	n := 0
	for i, x := range v {
		if x == 0 {
			continue
		}
		mask |= 1 << i
		switch i {
		case fFlag:
		case fPath:
			s.strs = append(s.strs, e.Path)
		case fDst:
			s.strs = append(s.strs, e.Dst)
		default:
			n += binary.PutUvarint(buf[n:], x)
		}
	}
	s.recs = append(binary.AppendUvarint(append(s.recs, byte(e.Op)), mask), buf[:n]...)
	j.prevTime, j.prevEpoch = e.Time, e.Epoch
}

// reader decodes one segment's records from the first, in order.
type reader struct {
	segment
	off, str int           // the next record's first byte and string
	time     time.Duration // Time and Epoch of the record last decoded
	epoch    uint64
}

// uvarint reads one uvarint. The journal wrote it, so it needs no checks.
func (r *reader) uvarint() (v uint64) {
	for shift := 0; ; shift += 7 {
		c := r.recs[r.off]
		r.off++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
}

// next decodes the next record into every field of e but Seq.
func (r *reader) next(e *Entry) {
	op := Op(r.recs[r.off])
	r.off++
	var v [numFields]uint64
	var path, dst string
	for m := r.uvarint(); m != 0; m &= m - 1 {
		switch i := bits.TrailingZeros64(m); i {
		case fFlag:
			v[i] = 1
		case fPath:
			path = r.strs[r.str]
			r.str++
		case fDst:
			dst = r.strs[r.str]
			r.str++
		default:
			v[i] = r.uvarint()
		}
	}
	r.time += time.Duration(unzigzag(v[fTime]))
	r.epoch += v[fEpoch]
	e.Epoch, e.Time, e.Op, e.Path, e.Dst = r.epoch, r.time, op, path, dst
	e.File, e.Block, e.Node = int(unzigzag(v[fFile])), unzigzag(v[fBlock]), int(unzigzag(v[fNode]))
	e.State, e.Target = int(unzigzag(v[fState])), int(unzigzag(v[fTarget]))
	e.K, e.M = int(unzigzag(v[fK])), int(unzigzag(v[fM]))
	e.Index, e.Group = int(unzigzag(v[fIndex])), int(unzigzag(v[fGroup]))
	e.Size, e.Flag = math.Float64frombits(bits.ReverseBytes64(v[fSize])), v[fFlag] != 0
}

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

// Append stamps e with the next sequence number and the current epoch and
// stores it. The stamped entry is returned.
func (j *Journal) Append(e Entry) Entry {
	e.Seq, e.Epoch = j.next, j.epoch
	if (j.next-j.base)%segmentCap == 0 {
		if j.spare.recs == nil {
			j.spare = segment{make([]byte, 0, segmentBytes), make([]string, 0, segmentStrs)}
		}
		j.segs = append(j.segs, j.spare)
		j.spare = segment{}
		j.prevTime, j.prevEpoch = 0, 0
	}
	s := &j.segs[len(j.segs)-1]
	j.appendRecord(s, &e)
	j.next++
	if (j.next-j.base)%segmentCap == 0 {
		built := *s
		s.recs, s.strs = slices.Clone(built.recs), slices.Clone(built.strs)
		clear(built.strs)
		j.spare = segment{built.recs[:0], built.strs[:0]}
	}
	return e
}

// NextSeq returns the sequence number the next Append will assign. A
// checkpoint taken now pairs with Tail(NextSeq()) later.
func (j *Journal) NextSeq() uint64 { return j.next }

// Start returns the first retained Seq: Tail and Each reach back that far
// and no further.
func (j *Journal) Start() uint64 { return j.start }

// Len returns the number of retained entries.
func (j *Journal) Len() int { return int(j.next - j.start) }

// Footprint returns the bytes the journal holds its entries in: the
// segments' record buffers, string tables and headers, the spare buffers
// and the segment list. The strings' own bytes are shared with whoever
// appended them and not counted.
func (j *Journal) Footprint() int {
	size := func(s segment) int { return cap(s.recs) + cap(s.strs)*int(unsafe.Sizeof("")) }
	n := size(j.spare) + cap(j.segs)*int(unsafe.Sizeof(j.spare))
	for _, s := range j.segs {
		n += size(s)
	}
	return n
}

// Each calls fn on every retained entry with Seq >= from, in order, until
// fn returns false. Every entry is decoded into the same scratch Entry: fn
// must not keep the pointer. Starting mid-segment decodes the records
// before from in that segment and skips them.
func (j *Journal) Each(from uint64, fn func(*Entry) bool) {
	from = max(from, j.start)
	if from >= j.next {
		return
	}
	var e Entry
	si := int((from - j.base) / segmentCap)
	seq := j.base + uint64(si)*segmentCap // Seq of segs[si]'s first record
	for ; si < len(j.segs); si++ {
		r := reader{segment: j.segs[si]}
		for end := min(seq+segmentCap, j.next); seq < end; seq++ {
			r.next(&e)
			if seq < from {
				continue
			}
			e.Seq = seq
			if !fn(&e) {
				return
			}
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

// Journal wire format, in the checkpoint's frame (package wire): magic,
// version, a varint entry count, then each entry's fields as canonical
// varints (strings length-prefixed, floats as IEEE bits), closed by the
// FNV-1a checksum trailer. The format shares its versioning discipline with
// the checkpoint: any change to entry semantics bumps JournalVersion, and
// decoders reject versions they do not know rather than guessing.
const (
	journalMagic = "ERMSJRNL"
	// JournalVersion 2 added the per-entry writer Epoch (journal-epoch
	// fencing); version 1 streams are rejected rather than guessed at.
	JournalVersion = 2
)

// EncodeEntries writes entries to w in the versioned journal format: the
// stream is appended into one slice, hashed once and written once.
func EncodeEntries(w io.Writer, entries []Entry) error {
	b := wire.Begin(make([]byte, 0, 64+48*len(entries)), journalMagic, JournalVersion)
	b.Uvarint(uint64(len(entries)))
	for i := range entries {
		e := &entries[i]
		b.Uvarint(e.Seq)
		b.Uvarint(e.Epoch)
		b.Varint(int64(e.Time))
		b.Uvarint(uint64(e.Op))
		b.Str(e.Path)
		b.Str(e.Dst)
		for _, v := range [9]int64{int64(e.File), e.Block, int64(e.Node), int64(e.State),
			int64(e.Target), int64(e.K), int64(e.M), int64(e.Index), int64(e.Group)} {
			b.Varint(v)
		}
		b.F64(e.Size)
		b.Bool(e.Flag)
	}
	if _, err := w.Write(b.Seal(0)); err != nil {
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
	d, err := wire.Open(data, journalMagic, JournalVersion, "auditlog: journal")
	if err != nil {
		return nil, err
	}
	// A forged count costs nothing: every entry takes at least 17 bytes, so
	// the loop ends at the payload's end.
	count := d.Uvarint("entry count")
	entries := make([]Entry, 0, min(count, 4096))
	for i := uint64(0); i < count && d.Err() == nil; i++ {
		e := Entry{Seq: d.Uvarint("seq"), Epoch: d.Uvarint("epoch"), Time: time.Duration(d.Varint("time"))}
		op := d.Uvarint("op")
		if d.Err() == nil && (op >= uint64(opSentinel) || !Op(op).Valid()) {
			return nil, fmt.Errorf("auditlog: journal decode entry %d: unknown op %d", i, op)
		}
		e.Op = Op(op)
		e.Path, e.Dst = d.Str("path"), d.Str("dst")
		e.File, e.Block, e.Node = int(d.Varint("file")), d.Varint("block"), int(d.Varint("node"))
		e.State, e.Target = int(d.Varint("state")), int(d.Varint("target"))
		e.K, e.M = int(d.Varint("k")), int(d.Varint("m"))
		e.Index, e.Group = int(d.Varint("index")), int(d.Varint("group"))
		e.Size, e.Flag = d.F64("size"), d.Bool("flag")
		entries = append(entries, e)
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return entries, nil
}
