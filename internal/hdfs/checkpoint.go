package hdfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"time"

	"erms/internal/auditlog"
	"erms/internal/netsim"
	"erms/internal/sim"
	"erms/internal/wire"
)

// Checkpoint format. The namenode's durable metadata serializes to a
// versioned, deterministic byte stream — the simulator's fsimage. Derived
// indexes (underSet, loadIdx, pathsCache, the per-datanode block sets and
// Used gauges, the file intern table's map side) are rebuilt on load, never
// serialized: they are pure functions of the durable state, and rebuilding
// them is both smaller on the wire and a free cross-check against
// ConsistencyErrors. Transient flow state (sessions, queued admissions,
// in-flight reads and replica copies) is deliberately NOT checkpointed:
// a standby namenode taking over mid-flight loses those the same way the
// real one does, and clients retry. Read metrics are normalized at encode
// time (in-flight reads are un-counted) so the conservation invariant
// "started == completed + failed + active" holds in the restored world and
// a restored cluster re-encodes to byte-identical output.
//
// Versioning rules: CheckpointVersion bumps on ANY change to the byte
// layout or to the semantics of a serialized field. Decoders reject
// versions they do not know — no silent best-effort parsing. The trailing
// FNV-1a checksum covers every preceding byte, so truncation and bit rot
// fail loudly before any state is touched.
const (
	checkpointMagic = "ERMSCKP1"
	// CheckpointVersion identifies the current checkpoint byte layout.
	CheckpointVersion = 1
)

const maxCkptSlots = 1 << 28 // decoder sanity bound (pre-allocation cap)

// inodeChunk is how many INodes restore allocates at a time.
const inodeChunk = 1024

// ConfigDigest fingerprints the cluster parameters a checkpoint depends
// on: block geometry, capacities, session limits, command latency, and the
// physical topology (rack count and every node's rack). A checkpoint only
// restores into a cluster with the same digest. Heartbeat tuning and the
// initial standby set are excluded on purpose: they shape *future* events,
// not the meaning of serialized state, so a verification shadow can run
// with heartbeats off and still accept the checkpoint. The block size,
// default replication and command latency are package constants, hashed
// like the settable values so a checkpoint does not restore into a build
// that uses other ones.
func (c *Cluster) ConfigDigest() uint64 {
	h := wire.NewDigest()
	h.U64(math.Float64bits(BlockSize))
	h.U64(uint64(DefaultReplication))
	h.U64(math.Float64bits(c.cfg.NodeCapacity))
	h.U64(uint64(c.cfg.MaxSessionsPerNode))
	h.U64(uint64(replCommandLatency))
	h.U64(uint64(c.topo.NumRacks()))
	h.U64(uint64(c.topo.NumNodes()))
	for _, n := range c.topo.Nodes {
		h.U64(uint64(n.Rack))
	}
	return uint64(h)
}

// StateDigest fingerprints the namenode's durable, journal-replayable
// metadata: the namespace (interned file table with gaps), the block map,
// every block's ordered replica list, and each datanode's lifecycle state,
// stale flag, and reported-corrupt set. It deliberately EXCLUDES silent
// ground truth the namenode cannot observe (corrupt flags, crashed
// processes) and heartbeat-clock bookkeeping (lastHeartbeat, activeSince,
// ActiveTime): a standby rebuilt from checkpoint + journal matches the
// live namenode on everything the digest covers, which is exactly the
// state that decides placement, replication, and reads.
func (c *Cluster) StateDigest() uint64 {
	h := wire.NewDigest()
	h.U64(uint64(c.nextBlock))
	h.U64(uint64(len(c.fileByID)))
	for _, f := range c.fileByID {
		if f == nil {
			h.U64(0)
			continue
		}
		h.U64(1)
		h.Str(f.Path)
		h.U64(math.Float64bits(f.Size))
		h.U64(uint64(f.CreatedAt))
		h.U64(uint64(f.TargetRepl))
		h.Bool(f.Encoded)
		k, m := f.Geometry()
		h.U64(uint64(k))
		h.U64(uint64(m))
		h.U64(uint64(len(f.Blocks)))
		for _, bid := range f.Blocks {
			h.U64(uint64(bid))
		}
		h.U64(uint64(len(f.Parity())))
		for _, bid := range f.Parity() {
			h.U64(uint64(bid))
		}
	}
	for id, r := range c.blocks {
		if r.file < 0 {
			continue
		}
		h.U64(uint64(id))
		h.U64(uint64(len(c.replicas[id])))
		for _, dn := range c.replicas[id] {
			h.U64(uint64(dn))
		}
	}
	for _, d := range c.datanodes {
		h.U64(uint64(d.State))
		h.Bool(d.Stale)
		h.U64(uint64(len(d.reported)))
		for _, bid := range sortedBlockIDs(d.reported) {
			h.U64(uint64(bid))
		}
	}
	return uint64(h)
}

func sortedBlockIDs(m map[BlockID]bool) []BlockID {
	if len(m) == 0 {
		return nil
	}
	out := make([]BlockID, 0, len(m))
	for bid := range m {
		out = append(out, bid)
	}
	slices.Sort(out)
	return out
}

// WriteCheckpoint serializes the namenode's durable state to w in the
// versioned checkpoint format. The output is deterministic: the same state
// always produces the same bytes, and a cluster restored from them
// re-encodes to the identical stream. The cluster is not mutated.
func (c *Cluster) WriteCheckpoint(w io.Writer) error {
	if _, err := w.Write(c.AppendCheckpoint(nil)); err != nil {
		return fmt.Errorf("hdfs: checkpoint write: %w", err)
	}
	return nil
}

// AppendCheckpoint appends the checkpoint stream WriteCheckpoint writes to
// dst and returns the extended slice — the form for a caller that keeps the
// bytes (a failover snapshot, the federated envelope) and can size dst from
// the last checkpoint it took.
func (c *Cluster) AppendCheckpoint(dst []byte) []byte {
	w := wire.Begin(dst, checkpointMagic, CheckpointVersion)
	w = binary.LittleEndian.AppendUint64(w, c.ConfigDigest())
	w.Uvarint(uint64(c.clock.Now()))
	w.Uvarint(c.journalPos())
	w.Uvarint(uint64(c.nextBlock))
	w.Uvarint(uint64(len(c.fileByID)))
	w.Uvarint(uint64(len(c.datanodes)))

	// Files, in intern order with explicit gaps, so restored intern IDs —
	// which the journal references — are identical. Blocks are NOT
	// serialized: every block is reconstructible from its file's metadata
	// (IDs in list order, sizes from the file size and block geometry).
	for _, f := range c.fileByID {
		if f == nil {
			w.Bool(false)
			continue
		}
		w.Bool(true)
		w.Str(f.Path)
		w.F64(f.Size)
		w.Varint(int64(f.CreatedAt))
		w.Uvarint(uint64(f.TargetRepl))
		w.Bool(f.Encoded)
		k, m := f.Geometry()
		w.Uvarint(uint64(k))
		w.Uvarint(uint64(m))
		writeIDList(&w, f.Blocks)
		writeIDList(&w, f.Parity())
	}

	// Replica lists for live blocks, ascending block ID. List order is
	// load-bearing (read selection and excess-replica choice walk it), so
	// it is serialized exactly, not canonicalized.
	for id, r := range c.blocks {
		if r.file < 0 {
			continue
		}
		reps := c.replicas[id]
		w.Uvarint(uint64(len(reps)))
		for _, dn := range reps {
			w.Uvarint(uint64(dn))
		}
	}

	// Datanode durable state. Capacity and MaxSessions come from config
	// (covered by the digest); block sets and Used are rebuilt from the
	// replica lists above; session/flow state is transient by design.
	for _, d := range c.datanodes {
		w.Uvarint(uint64(d.State))
		w.Bool(d.Stale)
		w.Bool(d.fault.Crashed)
		w.Varint(int64(d.lastHeartbeat))
		w.Varint(int64(d.activeSince))
		w.Varint(int64(d.ActiveTime))
		writeIDList(&w, sortedBlockIDs(d.corrupt))
		writeIDList(&w, sortedBlockIDs(d.reported))
	}

	// Cluster-wide odds and ends.
	parts := make([]int, 0, len(c.partitioned))
	for r := range c.partitioned {
		parts = append(parts, r)
	}
	sort.Ints(parts)
	w.Uvarint(uint64(len(parts)))
	for _, r := range parts {
		w.Uvarint(uint64(r))
	}
	w.Uvarint(uint64(c.scrubCursor))

	// Metrics, normalized: in-flight reads are not part of the restored
	// world, so they are un-counted from ReadsStarted.
	m := c.metrics
	m.ReadsStarted -= c.activeReads
	for _, p := range m.checkpointed() {
		switch p := p.(type) {
		case *int:
			w.Varint(int64(*p))
		case *float64:
			w.F64(*p)
		}
	}
	return w.Seal(len(dst))
}

// writeIDList delta-encodes an ascending block ID list (file block lists
// and the sorted corrupt/reported sets are ascending by construction).
func writeIDList(w *wire.Writer, ids []BlockID) {
	w.Uvarint(uint64(len(ids)))
	prev := int64(0)
	for _, id := range ids {
		w.Varint(int64(id) - prev)
		prev = int64(id)
	}
}

// journalPos returns the sequence number of the first journal entry NOT
// reflected in the current state: the attached journal's next sequence, or
// the position carried over from the checkpoint this cluster was restored
// from (so re-encoding a restored cluster is byte-identical).
func (c *Cluster) journalPos() uint64 {
	if c.journal != nil {
		return c.journal.NextSeq()
	}
	return c.ckptJournalSeq
}

// RestoredJournalSeq returns the journal position recorded in the last
// checkpoint this cluster restored (zero if none), advanced past every
// entry replayed since: replaying a journal tail from this sequence number
// brings the cluster up to date.
func (c *Cluster) RestoredJournalSeq() uint64 { return c.ckptJournalSeq }

// checkpointed lists the serialized metric fields, *int or *float64, in
// stream order: encode and decode both walk it. It reads the durable rows
// of metricFields; making another counter durable means marking its row
// (and bumping CheckpointVersion). The ranged-read, safe-mode and fencing
// counters are transient by design.
func (m *Metrics) checkpointed() []any {
	ps := make([]any, 0, len(metricFields))
	for _, f := range metricFields {
		if f.durable {
			ps = append(ps, f.field(m))
		}
	}
	return ps
}

// ckptNode is a decoded datanode record, pre-commit.
type ckptNode struct {
	state         NodeState
	stale         bool
	crashed       bool
	lastHeartbeat time.Duration
	activeSince   time.Duration
	activeTime    time.Duration
	corrupt       []BlockID
	reported      []BlockID
}

// ckptState is a fully decoded, fully validated checkpoint, ready to
// commit. Nothing touches the live cluster until decoding and validation
// have both succeeded — a corrupt stream can never half-restore.
type ckptState struct {
	now         time.Duration
	journalSeq  uint64
	nextBlock   BlockID
	fileByID    []*INode          // nil entries are intern-table gaps
	files       map[string]*INode // namespace map, adopted by commit as-is
	replicas    [][]DatanodeID
	nodes       []ckptNode
	partitioned []int
	scrubCursor int
	metrics     Metrics
}

// RestoreCheckpoint rebuilds the cluster from a checkpoint stream, read
// once into memory and then decoded as RestoreCheckpointBytes does.
func (c *Cluster) RestoreCheckpoint(r io.Reader) error {
	var buf bytes.Buffer
	if lr, ok := r.(interface{ Len() int }); ok {
		// Bytes already in memory: one allocation of the right size, not
		// io.ReadAll's grow-and-copy from 512 bytes up.
		buf.Grow(lr.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return fmt.Errorf("hdfs: checkpoint read: %w", err)
	}
	return c.restoreCheckpoint(buf.Bytes(), false)
}

// RestoreCheckpointBytes rebuilds the cluster from a checkpoint held in
// memory. The cluster must be pristine (freshly built with an equivalent
// Config: same ConfigDigest, no files, no blocks) and its engine must not
// have advanced past the checkpoint's capture time. Restore is
// all-or-nothing: any decode or validation error leaves the cluster
// untouched. On success the engine has advanced to the capture time, every
// derived index is rebuilt, and ConsistencyErrors() is nil by construction
// — the restored cluster is structurally identical to the one that wrote
// the checkpoint. The cluster keeps nothing of data, which the caller may
// reuse.
func (c *Cluster) RestoreCheckpointBytes(data []byte) error { return c.restoreCheckpoint(data, false) }

// RestoreCheckpointInPlace is RestoreCheckpointBytes for a replacement
// namenode built on an engine that has already reached or run past the
// capture time — the per-shard failover path, where every shard shares
// one cluster-wide engine that kept running while this shard's snapshot
// aged. The clock is never rewound, and an engine already at the capture
// instant is not run: state is adopted as of the capture time and the
// journal tail replay brings it forward. All other restore rules
// (pristine cluster, config digest, all-or-nothing) are unchanged.
func (c *Cluster) RestoreCheckpointInPlace(data []byte) error { return c.restoreCheckpoint(data, true) }

// Shadow commissions a verification standby of c: a pristine cluster on a
// fresh engine with c's durable configuration — the ConfigDigest inputs,
// sharing c's topology, whose links netsim copies — restored from ckpt and
// brought forward by replaying tail. Heartbeats, safe mode, the standby
// set and audit retention are off: they shape future events, not the
// restored state. The error says whether the restore or the replay failed.
func (c *Cluster) Shadow(ckpt []byte, tail []auditlog.Entry) (*Cluster, error) {
	s := New(sim.NewEngine(), Config{
		Topology:           c.topo,
		NodeCapacity:       c.cfg.NodeCapacity,
		MaxSessionsPerNode: c.cfg.MaxSessionsPerNode,
	})
	if err := s.RestoreCheckpointBytes(ckpt); err != nil {
		return nil, fmt.Errorf("hdfs: shadow restore: %w", err)
	}
	if err := s.ReplayJournal(tail); err != nil {
		return nil, fmt.Errorf("hdfs: shadow replay of %d entries: %w", len(tail), err)
	}
	return s, nil
}

// restoreCheckpoint is the one restore. inPlace is the single decision the
// two entry points differ in: whether this cluster owns the engine (it may
// not be past the capture time, and is run up to and including it) or is
// joining one that others keep running (it is run only if it is behind).
func (c *Cluster) restoreCheckpoint(data []byte, inPlace bool) error {
	if len(c.files) > 0 || c.nextBlock > 0 || c.liveBlocks > 0 {
		return fmt.Errorf("hdfs: restore requires a pristine cluster (have %d files, %d blocks)",
			len(c.files), c.liveBlocks)
	}
	st, err := c.decodeCheckpoint(data)
	if err != nil {
		return err
	}
	switch now := c.clock.Now(); {
	case now > st.now && !inPlace:
		return fmt.Errorf("hdfs: engine already at %v, past checkpoint time %v", now, st.now)
	case now < st.now || !inPlace:
		// Advance the clock first: pending housekeeping events (the
		// heartbeat ticker) fire over the still-pristine cluster, which
		// keeps them harmless AND keeps the ticker in the same absolute
		// phase as a cluster that ran the interval for real.
		c.clock.RunUntil(st.now)
	}
	c.commitCheckpoint(st)
	// A freshly restored namenode does not yet know the cluster's health
	// (HDFS starts in safe mode until block reports arrive): when the guard
	// is enabled, enter safe mode now and let the monitor exit it once the
	// thresholds hold for the dwell period.
	if c.cfg.SafeMode.Enabled {
		c.enterSafeMode("restore")
	}
	return nil
}

// decodeCheckpoint parses and validates a checkpoint stream without
// touching cluster state. The trailing checksum is verified before a
// single field is trusted. A read after a decode error returns zero, so
// the error is checked early only where a zero could fail validation and
// be reported in its place; the rest surface at d.End(). Nothing decoded
// aliases data: the paths share one string copy of it.
func (c *Cluster) decodeCheckpoint(data []byte) (*ckptState, error) {
	d, err := wire.Open(data, checkpointMagic, CheckpointVersion, "hdfs: checkpoint")
	if err != nil {
		return nil, err
	}
	if got, want := d.Fixed64("config digest"), c.ConfigDigest(); d.Err() == nil && got != want {
		return nil, fmt.Errorf("hdfs: checkpoint config digest %#x does not match cluster %#x", got, want)
	}
	var idSlab []BlockID // idList carves every block ID list from it
	st := &ckptState{now: time.Duration(d.Uvarint("capture time")), journalSeq: d.Uvarint("journal seq")}
	nextBlock := d.Uvarint("nextBlock")
	nSlots := d.Uvarint("file slots")
	nNodes := d.Uvarint("datanodes")
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nSlots > maxCkptSlots || nextBlock > maxCkptSlots {
		return nil, fmt.Errorf("hdfs: implausible checkpoint sizes (%d file slots, %d blocks)", nSlots, nextBlock)
	}
	st.nextBlock = BlockID(nextBlock)
	if int(nNodes) != len(c.datanodes) {
		return nil, fmt.Errorf("hdfs: checkpoint has %d datanodes, cluster has %d", nNodes, len(c.datanodes))
	}

	// Files. Block ownership is tracked so every live block has exactly
	// one owner and block IDs stay in range. The INodes, namespace map, and
	// slot table are built directly here — the map doubles as
	// duplicate-path detection, and commit adopts them wholesale.
	// Pre-allocation of the file slots is bounded by the payload size so a
	// forged header can't balloon them. The INodes are carved from chunks
	// of inodeChunk, each allocated when the last fills and never grown
	// (handed-out *INode pointers stay put), so the arena holds the files
	// present, not every slot ever interned, and at most one chunk more
	// than the payload names. The O(nextBlock) arrays — owner here, the
	// replica lists and bitmaps below — are bounded only by maxCkptSlots: a
	// forged 197-byte checkpoint claiming 2^26 blocks makes restore
	// allocate about 3 GB.
	owner := make([]int32, st.nextBlock) // 0 = unowned; slot+1 otherwise
	capHint := min(int(nSlots), len(data))
	var inodes []INode
	st.fileByID = make([]*INode, 0, capHint)
	st.files = make(map[string]*INode, min(capHint, len(data)/8))
	for i := uint64(0); i < nSlots && d.Err() == nil; i++ {
		if !d.Bool("slot presence") {
			st.fileByID = append(st.fileByID, nil)
			continue
		}
		slot := len(st.fileByID)
		if len(inodes) == cap(inodes) {
			inodes = make([]INode, 0, min(inodeChunk, int(nSlots-i)))
		}
		inodes = append(inodes, INode{
			Path:       d.Str("file path"),
			Size:       d.F64("file size"),
			CreatedAt:  time.Duration(d.Varint("createdAt")),
			TargetRepl: int(d.Uvarint("target repl")),
			Encoded:    d.Bool("encoded"),
			id:         int32(slot),
		})
		f := &inodes[len(inodes)-1]
		k, m := int(d.Uvarint("encodeK")), int(d.Uvarint("encodeM"))
		f.Blocks = idList(&d, &idSlab, "block list", st.nextBlock)
		// A Stripe only for a file that names one: a geometry or parities.
		if parity := idList(&d, &idSlab, "parity list", st.nextBlock); k != 0 || m != 0 || len(parity) > 0 {
			f.stripe = &Stripe{K: k, M: m, Parity: parity}
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		// Insert-then-check-growth detects duplicates with a single map
		// operation; on error the whole staged state is discarded anyway.
		before := len(st.files)
		st.files[f.Path] = f
		if f.Path == "" || len(st.files) == before {
			return nil, fmt.Errorf("hdfs: checkpoint slot %d: empty or duplicate path %q", slot, f.Path)
		}
		if f.Size <= 0 || math.IsNaN(f.Size) || math.IsInf(f.Size, 0) {
			return nil, fmt.Errorf("hdfs: checkpoint file %q: bad size %v", f.Path, f.Size)
		}
		if f.TargetRepl < 1 || f.CreatedAt < 0 || k < 0 || m < 0 {
			return nil, fmt.Errorf("hdfs: checkpoint file %q: bad metadata (target=%d createdAt=%v k=%d m=%d)",
				f.Path, f.TargetRepl, f.CreatedAt, k, m)
		}
		// A file never holds more blocks than its size implies.
		if want := blockCount(f.Size, BlockSize); len(f.Blocks) > want {
			return nil, fmt.Errorf("hdfs: checkpoint file %q: %d blocks for size %.0f (max %d)",
				f.Path, len(f.Blocks), f.Size, want)
		}
		if len(f.Parity()) > 0 && (k <= 0 || m <= 0) {
			return nil, fmt.Errorf("hdfs: checkpoint file %q: parity blocks without stripe geometry", f.Path)
		}
		if f.Encoded && k <= 0 {
			return nil, fmt.Errorf("hdfs: checkpoint file %q: encoded without geometry", f.Path)
		}
		for _, ids := range [2][]BlockID{f.Blocks, f.Parity()} {
			for _, bid := range ids {
				if owner[bid] != 0 {
					return nil, fmt.Errorf("hdfs: checkpoint block %d claimed by two files", bid)
				}
				owner[bid] = int32(slot) + 1
			}
		}
		st.fileByID = append(st.fileByID, f)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}

	// Replica lists, one per live (owned) block in ascending ID order.
	// Duplicate detection uses a generation-stamped array instead of a
	// per-block map, and the lists carve a shared slab: at a million blocks
	// the per-block map alone dominated the whole restore.
	st.replicas = make([][]DatanodeID, st.nextBlock)
	seenGen := make([]uint64, len(c.datanodes))
	var gen uint64
	var slab []DatanodeID
	for bid := BlockID(0); bid < st.nextBlock; bid++ {
		if owner[bid] == 0 {
			continue
		}
		n := d.Uvarint("replica count")
		if n > nNodes {
			return nil, fmt.Errorf("hdfs: checkpoint block %d: %d replicas on a %d-node cluster", bid, n, nNodes)
		}
		gen++
		if uint64(len(slab)) < n {
			slab = make([]DatanodeID, max(1<<16, int(n)))
		}
		reps := slab[:n:n]
		slab = slab[n:]
		for j := uint64(0); j < n; j++ {
			dn := d.Uvarint("replica node")
			if d.Err() != nil {
				return nil, d.Err()
			}
			if dn >= nNodes || seenGen[dn] == gen {
				return nil, fmt.Errorf("hdfs: checkpoint block %d: bad or duplicate replica node %d", bid, dn)
			}
			seenGen[dn] = gen
			reps[j] = DatanodeID(dn)
		}
		st.replicas[bid] = reps
	}

	// Datanodes. Holdings are validated against the replica lists directly:
	// a per-node count answers the down-node check, and the corrupt/reported
	// sets are small, so membership scans the (short) replica list itself
	// rather than materializing per-node block maps.
	heldCount := make([]int, len(c.datanodes))
	for _, reps := range st.replicas {
		for _, dn := range reps {
			heldCount[dn]++
		}
	}
	holds := func(dn int, bid BlockID) bool {
		for _, r := range st.replicas[bid] {
			if int(r) == dn {
				return true
			}
		}
		return false
	}
	st.nodes = make([]ckptNode, len(c.datanodes))
	for i := range st.nodes {
		n := &st.nodes[i]
		n.state = NodeState(d.Uvarint("node state"))
		n.stale = d.Bool("stale")
		n.crashed = d.Bool("crashed")
		n.lastHeartbeat = time.Duration(d.Varint("lastHeartbeat"))
		n.activeSince = time.Duration(d.Varint("activeSince"))
		n.activeTime = time.Duration(d.Varint("activeTime"))
		n.corrupt = idList(&d, &idSlab, "corrupt set", st.nextBlock)
		n.reported = idList(&d, &idSlab, "reported set", st.nextBlock)
		if n.state < StateActive || n.state > StateDown {
			return nil, fmt.Errorf("hdfs: checkpoint node %d: unknown state %d", i, n.state)
		}
		if n.state == StateDown && heldCount[i] > 0 {
			return nil, fmt.Errorf("hdfs: checkpoint node %d: down but holds %d replicas", i, heldCount[i])
		}
		for _, set := range [][]BlockID{n.corrupt, n.reported} {
			for _, bid := range set {
				if !holds(i, bid) {
					return nil, fmt.Errorf("hdfs: checkpoint node %d: flags block %d it does not hold", i, bid)
				}
			}
		}
	}

	// Cluster odds and ends: the partitioned racks are a set, written
	// ascending.
	nParts := d.Uvarint("partition count")
	if nParts > uint64(c.topo.NumRacks()) {
		return nil, fmt.Errorf("hdfs: checkpoint partitions %d racks of %d", nParts, c.topo.NumRacks())
	}
	for i := uint64(0); i < nParts; i++ {
		rk := int(d.Uvarint("partitioned rack"))
		if d.Err() != nil {
			return nil, d.Err()
		}
		if rk < 0 || rk >= c.topo.NumRacks() || (i > 0 && rk <= st.partitioned[i-1]) {
			return nil, fmt.Errorf("hdfs: checkpoint partitions unknown or repeated rack %d", rk)
		}
		st.partitioned = append(st.partitioned, rk)
	}
	st.scrubCursor = int(d.Uvarint("scrub cursor"))
	if d.Err() == nil && (st.scrubCursor < 0 || st.scrubCursor >= max(int(st.nextBlock), 1)) {
		return nil, fmt.Errorf("hdfs: checkpoint scrub cursor %d out of range", st.scrubCursor)
	}

	for i, p := range st.metrics.checkpointed() {
		var bad bool
		switch p := p.(type) {
		case *int:
			*p = int(d.Varint("metric"))
			bad = *p < 0
		case *float64:
			*p = d.F64("metric")
			bad = *p < 0 || math.IsNaN(*p)
		}
		if bad {
			return nil, fmt.Errorf("hdfs: checkpoint metric %d is negative or NaN", i)
		}
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	if st.metrics.ReadsStarted != st.metrics.ReadsCompleted+st.metrics.ReadsFailed {
		return nil, fmt.Errorf("hdfs: checkpoint read metrics do not balance (%d != %d + %d)",
			st.metrics.ReadsStarted, st.metrics.ReadsCompleted, st.metrics.ReadsFailed)
	}
	return st, nil
}

// commitCheckpoint applies a validated checkpoint, rebuilding every
// derived index from the durable state.
func (c *Cluster) commitCheckpoint(st *ckptState) {
	c.nextBlock = st.nextBlock
	c.ckptJournalSeq = st.journalSeq
	c.blocks = make([]blockRef, st.nextBlock)
	c.replicas = st.replicas
	c.liveBlocks = 0
	c.files = st.files
	c.fileByID = st.fileByID

	// Enter every block at its position in its file's lists: the sizes,
	// indexes and stripe groups view derives follow from the file. A
	// mid-write file's minted blocks are all full-size (the remainder block
	// is minted last), so deriving against the final count is right for
	// partial files too.
	for i := range c.blocks {
		c.blocks[i] = noBlock
	}
	for slot, f := range st.fileByID {
		if f == nil {
			continue
		}
		for i, bid := range f.Blocks {
			c.blocks[bid] = blockRef{int32(slot), int32(i)}
		}
		for p, bid := range f.Parity() {
			c.blocks[bid] = blockRef{int32(slot), ^int32(p)}
		}
		c.liveBlocks += len(f.Blocks) + len(f.Parity())
	}

	// Datanodes: durable fields from the checkpoint, block sets and Used
	// rebuilt from the replica lists, transient flow state reset. Every
	// node's bitmap is carved full-width from one slab so the replica
	// fill below never grows a bitmap (growth copies dominated restore).
	words := int(uint64(st.nextBlock)>>6) + 1
	bitSlab := make([]uint64, len(c.datanodes)*words)
	for i, d := range c.datanodes {
		n := &st.nodes[i]
		d.State = n.state
		d.Stale = n.stale
		d.fault.Crashed = n.crashed
		d.lastHeartbeat = n.lastHeartbeat
		d.activeSince = n.activeSince
		d.ActiveTime = n.activeTime
		d.Used = 0
		d.sessions = 0
		d.xferOut = 0
		d.inbound = nil
		d.pendingBytes = 0
		d.waiting = nil
		d.activeFlows = make(map[*netsim.Flow]*flowHandle)
		d.blocks = blockSet{bits: bitSlab[i*words : (i+1)*words : (i+1)*words]}
		d.corrupt = make(map[BlockID]bool, len(n.corrupt))
		for _, bid := range n.corrupt {
			d.corrupt[bid] = true
		}
		d.reported = make(map[BlockID]bool, len(n.reported))
		for _, bid := range n.reported {
			d.reported[bid] = true
		}
	}
	for bid, reps := range c.replicas {
		if len(reps) == 0 {
			continue
		}
		size := c.size(BlockID(bid))
		for _, dn := range reps {
			d := c.datanodes[dn]
			d.blocks.Add(BlockID(bid))
			d.Used += size
		}
	}

	c.rebuildDerived()

	c.partitioned = make(map[int]bool, len(st.partitioned))
	for _, r := range st.partitioned {
		c.partitioned[r] = true
	}
	c.scrubCursor = st.scrubCursor
	c.metrics = st.metrics
	c.activeReads = 0
	c.copying = make(map[BlockID]int)
}

// idList reads a delta-encoded, strictly ascending block ID list whose
// members must lie in [0, limit).
func idList(d *wire.Reader, slab *[]BlockID, what string, limit BlockID) []BlockID {
	n := d.Uvarint(what)
	if d.Err() != nil {
		return nil
	}
	if n > uint64(limit) {
		d.Fail(what, fmt.Errorf("%d IDs with only %d blocks", n, limit))
		return nil
	}
	// Lists carve windows from a shared slab: a million per-file block
	// lists allocated individually is measurable at restore time.
	if uint64(len(*slab)) < n {
		*slab = make([]BlockID, max(1<<16, int(n)))
	}
	out := (*slab)[:0:n]
	*slab = (*slab)[n:]
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		delta := d.Varint(what)
		if d.Err() != nil {
			return nil
		}
		if i > 0 && delta <= 0 {
			d.Fail(what, fmt.Errorf("IDs not strictly ascending after %d", prev))
			return nil
		}
		v := prev + delta
		if v < 0 || v >= int64(limit) {
			d.Fail(what, fmt.Errorf("ID %d out of range [0,%d)", v, limit))
			return nil
		}
		out = append(out, BlockID(v))
		prev = v
	}
	return out
}
