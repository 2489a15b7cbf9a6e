package hdfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"sort"
	"time"

	"erms/internal/netsim"
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

const (
	maxCkptSlots  = 1 << 28 // decoder sanity bounds (pre-allocation caps)
	maxCkptString = 1 << 20
)

// ckptWriter appends the stream to one byte slice: no writer, buffer or
// hash sits under the per-field calls, of which a checkpoint makes a dozen
// a file. AppendCheckpoint hashes the finished bytes once.
type ckptWriter struct{ b []byte }

func (cw *ckptWriter) uvarint(v uint64) { cw.b = binary.AppendUvarint(cw.b, v) }

func (cw *ckptWriter) varint(v int64) { cw.b = binary.AppendVarint(cw.b, v) }

func (cw *ckptWriter) f64(v float64) { cw.uvarint(math.Float64bits(v)) }

func (cw *ckptWriter) boolv(v bool) {
	if v {
		cw.b = append(cw.b, 1)
	} else {
		cw.b = append(cw.b, 0)
	}
}

func (cw *ckptWriter) str(s string) {
	cw.uvarint(uint64(len(s)))
	cw.b = append(cw.b, s...)
}

// ConfigDigest fingerprints the cluster parameters a checkpoint depends
// on: block geometry, capacities, session limits, command latency, and the
// physical topology (rack count and every node's rack). A checkpoint only
// restores into a cluster with the same digest. Heartbeat tuning and the
// initial standby set are excluded on purpose: they shape *future* events,
// not the meaning of serialized state, so a verification shadow can run
// with heartbeats off and still accept the checkpoint.
func (c *Cluster) ConfigDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u(math.Float64bits(c.cfg.BlockSize))
	u(uint64(c.cfg.DefaultReplication))
	u(math.Float64bits(c.cfg.NodeCapacity))
	u(uint64(c.cfg.MaxSessionsPerNode))
	u(uint64(c.cfg.ReplCommandLatency))
	u(uint64(c.topo.NumRacks()))
	u(uint64(c.topo.NumNodes()))
	for _, n := range c.topo.Nodes {
		u(uint64(n.Rack))
	}
	return h.Sum64()
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
	h := fnv.New64a()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	s := func(v string) {
		u(uint64(len(v)))
		io.WriteString(h, v)
	}
	u(uint64(c.nextBlock))
	u(uint64(len(c.fileByID)))
	for _, f := range c.fileByID {
		if f == nil {
			u(0)
			continue
		}
		u(1)
		s(f.Path)
		u(math.Float64bits(f.Size))
		u(uint64(f.CreatedAt))
		u(uint64(f.TargetRepl))
		if f.Encoded {
			u(1)
		} else {
			u(0)
		}
		u(uint64(f.EncodeK))
		u(uint64(f.EncodeM))
		u(uint64(len(f.Blocks)))
		for _, bid := range f.Blocks {
			u(uint64(bid))
		}
		u(uint64(len(f.Parity)))
		for _, bid := range f.Parity {
			u(uint64(bid))
		}
	}
	for id, b := range c.blocks {
		if b == nil {
			continue
		}
		u(uint64(id))
		u(uint64(len(c.replicas[id])))
		for _, dn := range c.replicas[id] {
			u(uint64(dn))
		}
	}
	for _, d := range c.datanodes {
		u(uint64(d.State))
		if d.Stale {
			u(1)
		} else {
			u(0)
		}
		u(uint64(len(d.reported)))
		for _, bid := range sortedBlockIDs(d.reported) {
			u(uint64(bid))
		}
	}
	return h.Sum64()
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
	cw := &ckptWriter{b: append(dst, checkpointMagic...)}

	// Header.
	cw.uvarint(CheckpointVersion)
	cw.b = binary.LittleEndian.AppendUint64(cw.b, c.ConfigDigest())
	cw.uvarint(uint64(c.clock.Now()))
	cw.uvarint(c.journalPos())
	cw.uvarint(uint64(c.nextBlock))
	cw.uvarint(uint64(len(c.fileByID)))
	cw.uvarint(uint64(len(c.datanodes)))

	// Files, in intern order with explicit gaps, so restored intern IDs —
	// which the journal references — are identical. Blocks are NOT
	// serialized: every block is reconstructible from its file's metadata
	// (IDs in list order, sizes from the file size and block geometry).
	for _, f := range c.fileByID {
		if f == nil {
			cw.boolv(false)
			continue
		}
		cw.boolv(true)
		cw.str(f.Path)
		cw.f64(f.Size)
		cw.varint(int64(f.CreatedAt))
		cw.uvarint(uint64(f.TargetRepl))
		cw.boolv(f.Encoded)
		cw.uvarint(uint64(f.EncodeK))
		cw.uvarint(uint64(f.EncodeM))
		writeIDList(cw, f.Blocks)
		writeIDList(cw, f.Parity)
	}

	// Replica lists for live blocks, ascending block ID. List order is
	// load-bearing (read selection and excess-replica choice walk it), so
	// it is serialized exactly, not canonicalized.
	for id, b := range c.blocks {
		if b == nil {
			continue
		}
		reps := c.replicas[id]
		cw.uvarint(uint64(len(reps)))
		for _, dn := range reps {
			cw.uvarint(uint64(dn))
		}
	}

	// Datanode durable state. Capacity and MaxSessions come from config
	// (covered by the digest); block sets and Used are rebuilt from the
	// replica lists above; session/flow state is transient by design.
	for _, d := range c.datanodes {
		cw.uvarint(uint64(d.State))
		cw.boolv(d.Stale)
		cw.boolv(d.crashed)
		cw.varint(int64(d.lastHeartbeat))
		cw.varint(int64(d.activeSince))
		cw.varint(int64(d.ActiveTime))
		writeIDList(cw, sortedBlockIDs(d.corrupt))
		writeIDList(cw, sortedBlockIDs(d.reported))
	}

	// Cluster-wide odds and ends.
	parts := make([]int, 0, len(c.partitioned))
	for r := range c.partitioned {
		parts = append(parts, r)
	}
	sort.Ints(parts)
	cw.uvarint(uint64(len(parts)))
	for _, r := range parts {
		cw.uvarint(uint64(r))
	}
	cw.uvarint(uint64(c.scrubCursor))

	// Metrics, normalized: in-flight reads are not part of the restored
	// world, so they are un-counted from ReadsStarted.
	m := c.metrics
	m.ReadsStarted -= c.activeReads
	for _, v := range m.ints() {
		cw.varint(int64(v))
	}
	for _, v := range m.floats() {
		cw.f64(v)
	}

	h := fnv.New64a()
	h.Write(cw.b[len(dst):])
	return binary.LittleEndian.AppendUint64(cw.b, h.Sum64())
}

// writeIDList delta-encodes an ascending block ID list (file block lists
// and the sorted corrupt/reported sets are ascending by construction).
func writeIDList(cw *ckptWriter, ids []BlockID) {
	cw.uvarint(uint64(len(ids)))
	prev := int64(0)
	for _, id := range ids {
		cw.varint(int64(id) - prev)
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
// checkpoint this cluster restored (zero if none): replaying a journal
// tail from this sequence number brings the cluster up to date.
func (c *Cluster) RestoredJournalSeq() uint64 { return c.ckptJournalSeq }

// ints lists the integer metric fields in a fixed serialization order.
// Adding a Metrics field requires extending this list (and bumping
// CheckpointVersion).
func (m *Metrics) ints() []int {
	return []int{
		m.ReadsStarted, m.ReadsCompleted, m.ReadsFailed,
		m.BlockReads, m.NodeLocalReads, m.RackLocalReads, m.RemoteReads,
		m.ReplicasAdded, m.ReplicasRemoved,
		m.FilesEncoded, m.BlocksRebuilt,
		m.StaleTransitions, m.ReplicasScrubbed, m.CorruptDetected, m.ChecksumFailures,
	}
}

func (m *Metrics) setInts(v []int) {
	m.ReadsStarted, m.ReadsCompleted, m.ReadsFailed = v[0], v[1], v[2]
	m.BlockReads, m.NodeLocalReads, m.RackLocalReads, m.RemoteReads = v[3], v[4], v[5], v[6]
	m.ReplicasAdded, m.ReplicasRemoved = v[7], v[8]
	m.FilesEncoded, m.BlocksRebuilt = v[9], v[10]
	m.StaleTransitions, m.ReplicasScrubbed, m.CorruptDetected, m.ChecksumFailures = v[11], v[12], v[13], v[14]
}

func (m *Metrics) floats() []float64 {
	return []float64{m.BytesRead, m.ReplicationMB, m.CorruptBytes}
}

func (m *Metrics) setFloats(v []float64) {
	m.BytesRead, m.ReplicationMB, m.CorruptBytes = v[0], v[1], v[2]
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
	inodes      []INode           // cap-fixed arena; fileByID points into it
	fileByID    []*INode          // nil entries are intern-table gaps
	files       map[string]*INode // namespace map, adopted by commit as-is
	live        int               // owned-block count, sizes the commit arena
	replicas    [][]DatanodeID
	nodes       []ckptNode
	partitioned []int
	scrubCursor int
	metrics     Metrics
}

// RestoreCheckpoint rebuilds the cluster from a checkpoint stream. The
// cluster must be pristine (freshly built with an equivalent Config: same
// ConfigDigest, no files, no blocks) and its engine must not have advanced
// past the checkpoint's capture time. Restore is all-or-nothing: any
// decode or validation error leaves the cluster untouched. On success the
// engine has advanced to the capture time, every derived index is rebuilt,
// and ConsistencyErrors() is nil by construction — the restored cluster is
// structurally identical to the one that wrote the checkpoint.
func (c *Cluster) RestoreCheckpoint(r io.Reader) error { return c.restoreCheckpoint(r, false) }

// RestoreCheckpointInPlace is RestoreCheckpoint for a replacement namenode
// built on an engine that has already reached or run past the capture time
// — the per-shard failover path, where every shard shares one cluster-wide
// engine that kept running while this shard's snapshot aged. The clock is
// never rewound, and an engine already at the capture instant is not run:
// state is adopted as of the capture time and the journal tail replay
// brings it forward. All other restore rules (pristine cluster, config
// digest, all-or-nothing) are unchanged.
func (c *Cluster) RestoreCheckpointInPlace(r io.Reader) error { return c.restoreCheckpoint(r, true) }

// restoreCheckpoint is the one restore. inPlace is the single decision the
// two entry points differ in: whether this cluster owns the engine (it may
// not be past the capture time, and is run up to and including it) or is
// joining one that others keep running (it is run only if it is behind).
func (c *Cluster) restoreCheckpoint(r io.Reader, inPlace bool) error {
	if len(c.files) > 0 || c.nextBlock > 0 || c.liveBlocks > 0 {
		return fmt.Errorf("hdfs: restore requires a pristine cluster (have %d files, %d blocks)",
			len(c.files), c.liveBlocks)
	}
	st, err := c.decodeCheckpoint(r)
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
// touching cluster state. The whole stream is read up front so the
// trailing checksum is verified before a single field is trusted.
func (c *Cluster) decodeCheckpoint(r io.Reader) (*ckptState, error) {
	var buf bytes.Buffer
	if lr, ok := r.(interface{ Len() int }); ok {
		// Bytes already in memory (a failover snapshot): one allocation of
		// the right size, not io.ReadAll's grow-and-copy from 512 bytes up.
		buf.Grow(lr.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("hdfs: checkpoint read: %w", err)
	}
	data := buf.Bytes()
	if len(data) < len(checkpointMagic)+8 {
		return nil, fmt.Errorf("hdfs: checkpoint too short (%d bytes)", len(data))
	}
	payload, trailer := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(payload)
	if got, want := binary.LittleEndian.Uint64(trailer), h.Sum64(); got != want {
		return nil, fmt.Errorf("hdfs: checkpoint checksum mismatch (%#x != %#x)", got, want)
	}
	if string(payload[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("hdfs: bad checkpoint magic %q", payload[:len(checkpointMagic)])
	}
	d := &ckptDecoder{data: payload[len(checkpointMagic):]}
	// One blob copy backs every decoded string: a million per-path
	// allocations otherwise show up in both malloc and GC mark time.
	d.blob = string(d.data)

	if v := d.uvarint("version"); d.err == nil && v != CheckpointVersion {
		return nil, fmt.Errorf("hdfs: unsupported checkpoint version %d (want %d)", v, CheckpointVersion)
	}
	var cfgDigest [8]byte
	d.bytes("config digest", cfgDigest[:])
	if d.err == nil {
		if got, want := binary.LittleEndian.Uint64(cfgDigest[:]), c.ConfigDigest(); got != want {
			return nil, fmt.Errorf("hdfs: checkpoint config digest %#x does not match cluster %#x", got, want)
		}
	}
	st := &ckptState{}
	st.now = time.Duration(d.uvarint("capture time"))
	st.journalSeq = d.uvarint("journal seq")
	st.nextBlock = BlockID(d.uvarint("nextBlock"))
	nSlots := d.uvarint("file slots")
	nNodes := d.uvarint("datanodes")
	if d.err != nil {
		return nil, d.err
	}
	if nSlots > maxCkptSlots || st.nextBlock > maxCkptSlots {
		return nil, fmt.Errorf("hdfs: implausible checkpoint sizes (%d file slots, %d blocks)", nSlots, st.nextBlock)
	}
	if int(nNodes) != len(c.datanodes) {
		return nil, fmt.Errorf("hdfs: checkpoint has %d datanodes, cluster has %d", nNodes, len(c.datanodes))
	}

	// Files. Block ownership is tracked so every live block has exactly
	// one owner and block IDs stay in range. The INode arena, namespace
	// map, and slot table are built directly here — the map doubles as
	// duplicate-path detection, and commit adopts all three wholesale.
	// Pre-allocation is bounded by the payload size so a forged header
	// can't balloon memory; the bound also fixes the arena's capacity
	// (every present slot costs at least one payload byte, so appends can
	// never exceed it), which keeps handed-out *INode pointers stable.
	owner := make([]int32, st.nextBlock) // 0 = unowned; slot+1 otherwise
	capHint := min(int(nSlots), len(payload))
	st.inodes = make([]INode, 0, capHint)
	st.fileByID = make([]*INode, 0, capHint)
	st.files = make(map[string]*INode, min(capHint, len(payload)/8))
	liveBlocks := 0
	for i := uint64(0); i < nSlots && d.err == nil; i++ {
		if !d.boolv("slot presence") {
			st.fileByID = append(st.fileByID, nil)
			continue
		}
		slot := len(st.fileByID)
		st.inodes = append(st.inodes, INode{
			Path:       d.str("file path"),
			Size:       d.f64("file size"),
			CreatedAt:  time.Duration(d.varint("createdAt")),
			TargetRepl: int(d.uvarint("target repl")),
			Encoded:    d.boolv("encoded"),
			EncodeK:    int(d.uvarint("encodeK")),
			EncodeM:    int(d.uvarint("encodeM")),
			Blocks:     d.idList("block list", st.nextBlock),
			Parity:     d.idList("parity list", st.nextBlock),
			id:         slot,
		})
		f := &st.inodes[len(st.inodes)-1]
		if d.err != nil {
			return nil, d.err
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
		if f.TargetRepl < 1 || f.CreatedAt < 0 || f.EncodeK < 0 || f.EncodeM < 0 {
			return nil, fmt.Errorf("hdfs: checkpoint file %q: bad metadata (target=%d createdAt=%v k=%d m=%d)",
				f.Path, f.TargetRepl, f.CreatedAt, f.EncodeK, f.EncodeM)
		}
		// A file mid-write (WriteFile mints blocks as pipeline flows land)
		// may have fewer blocks than its final size implies, never more.
		if want := blockCount(f.Size, c.cfg.BlockSize); len(f.Blocks) > want {
			return nil, fmt.Errorf("hdfs: checkpoint file %q: %d blocks for size %.0f (max %d)",
				f.Path, len(f.Blocks), f.Size, want)
		}
		if len(f.Parity) > 0 && (f.EncodeK <= 0 || f.EncodeM <= 0) {
			return nil, fmt.Errorf("hdfs: checkpoint file %q: parity blocks without stripe geometry", f.Path)
		}
		if f.Encoded && f.EncodeK <= 0 {
			return nil, fmt.Errorf("hdfs: checkpoint file %q: encoded without geometry", f.Path)
		}
		for _, ids := range [2][]BlockID{f.Blocks, f.Parity} {
			for _, bid := range ids {
				if owner[bid] != 0 {
					return nil, fmt.Errorf("hdfs: checkpoint block %d claimed by two files", bid)
				}
				owner[bid] = int32(slot) + 1
				liveBlocks++
			}
		}
		st.fileByID = append(st.fileByID, f)
	}
	if d.err != nil {
		return nil, d.err
	}

	// Replica lists, one per live (owned) block in ascending ID order.
	// Duplicate detection uses a generation-stamped array instead of a
	// per-block map, and the lists carve a shared slab: at a million blocks
	// the per-block map alone dominated the whole restore.
	st.live = liveBlocks
	st.replicas = make([][]DatanodeID, st.nextBlock)
	seenGen := make([]uint64, len(c.datanodes))
	var gen uint64
	var slab []DatanodeID
	for bid := BlockID(0); bid < st.nextBlock; bid++ {
		if owner[bid] == 0 {
			continue
		}
		n := d.uvarint("replica count")
		if d.err != nil {
			return nil, d.err
		}
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
			dn := DatanodeID(d.uvarint("replica node"))
			if d.err != nil {
				return nil, d.err
			}
			if int(dn) >= len(c.datanodes) || seenGen[dn] == gen {
				return nil, fmt.Errorf("hdfs: checkpoint block %d: bad or duplicate replica node %d", bid, dn)
			}
			seenGen[dn] = gen
			reps[j] = dn
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
		n.state = NodeState(d.uvarint("node state"))
		n.stale = d.boolv("stale")
		n.crashed = d.boolv("crashed")
		n.lastHeartbeat = time.Duration(d.varint("lastHeartbeat"))
		n.activeSince = time.Duration(d.varint("activeSince"))
		n.activeTime = time.Duration(d.varint("activeTime"))
		n.corrupt = d.idList("corrupt set", st.nextBlock)
		n.reported = d.idList("reported set", st.nextBlock)
		if d.err != nil {
			return nil, d.err
		}
		if n.state < StateActive || n.state > StateDecommissioned {
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

	// Cluster odds and ends.
	nParts := d.uvarint("partition count")
	if d.err != nil {
		return nil, d.err
	}
	if nParts > uint64(c.topo.NumRacks()) {
		return nil, fmt.Errorf("hdfs: checkpoint partitions %d racks of %d", nParts, c.topo.NumRacks())
	}
	for i := uint64(0); i < nParts; i++ {
		rk := int(d.uvarint("partitioned rack"))
		if d.err != nil {
			return nil, d.err
		}
		if rk < 0 || rk >= c.topo.NumRacks() {
			return nil, fmt.Errorf("hdfs: checkpoint partitions unknown rack %d", rk)
		}
		st.partitioned = append(st.partitioned, rk)
	}
	st.scrubCursor = int(d.uvarint("scrub cursor"))
	if d.err == nil {
		bad := st.scrubCursor < 0
		if st.nextBlock > 0 {
			bad = bad || st.scrubCursor >= int(st.nextBlock)
		} else {
			bad = bad || st.scrubCursor != 0
		}
		if bad {
			return nil, fmt.Errorf("hdfs: checkpoint scrub cursor %d out of range", st.scrubCursor)
		}
	}

	ints := make([]int, len(st.metrics.ints()))
	for i := range ints {
		ints[i] = int(d.varint("metric"))
		if d.err == nil && ints[i] < 0 {
			return nil, fmt.Errorf("hdfs: checkpoint metric %d is negative", i)
		}
	}
	floats := make([]float64, len(st.metrics.floats()))
	for i := range floats {
		floats[i] = d.f64("metric")
		if d.err == nil && (floats[i] < 0 || math.IsNaN(floats[i])) {
			return nil, fmt.Errorf("hdfs: checkpoint float metric %d is invalid", i)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	st.metrics.setInts(ints)
	st.metrics.setFloats(floats)
	if st.metrics.ReadsStarted != st.metrics.ReadsCompleted+st.metrics.ReadsFailed {
		return nil, fmt.Errorf("hdfs: checkpoint read metrics do not balance (%d != %d + %d)",
			st.metrics.ReadsStarted, st.metrics.ReadsCompleted, st.metrics.ReadsFailed)
	}
	if d.rem() != 0 {
		return nil, fmt.Errorf("hdfs: checkpoint has %d trailing bytes", d.rem())
	}
	return st, nil
}

// blockCount returns how many blocks a file of the given size splits into.
func blockCount(size, blockSize float64) int {
	n := int(size / blockSize)
	if float64(n)*blockSize < size {
		n++
	}
	return n
}

// commitCheckpoint applies a validated checkpoint, rebuilding every
// derived index from the durable state.
func (c *Cluster) commitCheckpoint(st *ckptState) {
	c.nextBlock = st.nextBlock
	c.ckptJournalSeq = st.journalSeq
	c.blocks = make([]*Block, st.nextBlock)
	c.replicas = st.replicas
	c.readCounts = make([]int64, st.nextBlock)
	c.liveBlocks = 0
	c.files = st.files
	c.fileByID = st.fileByID
	c.pathsCache = nil

	// Reconstruct every Block from its file: data block sizes follow from
	// the file size and block geometry, parities are whole blocks whose
	// stripe group is their position in the parity list. Blocks come out
	// of one cap-fixed arena — a million individual allocations is a
	// third of restore time, and the full slice guarantees append never
	// relocates a handed-out pointer.
	blockArena := make([]Block, 0, st.live)
	newBlock := func(b Block) *Block {
		blockArena = append(blockArena, b)
		return &blockArena[len(blockArena)-1]
	}
	for slot, f := range st.fileByID {
		if f == nil {
			continue
		}
		// Data block sizes follow from the file size: full blocks except
		// the file's FINAL block, which carries the remainder. A mid-write
		// file's minted blocks are all full-size (the remainder block is
		// minted last), so indexing against the final count is right for
		// partial files too.
		want := blockCount(f.Size, c.cfg.BlockSize)
		for i, bid := range f.Blocks {
			bs := c.cfg.BlockSize
			if i == want-1 {
				bs = f.Size - float64(want-1)*c.cfg.BlockSize
			}
			c.blocks[bid] = newBlock(Block{ID: bid, File: f.Path, Index: i, Size: bs, fileID: slot})
			c.liveBlocks++
		}
		n := len(f.Blocks)
		for p, bid := range f.Parity {
			c.blocks[bid] = newBlock(Block{
				ID: bid, File: f.Path, Index: n + p, Size: c.cfg.BlockSize,
				Parity: true, Group: p / max(f.EncodeM, 1), fileID: slot,
			})
			c.liveBlocks++
		}
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
		d.crashed = n.crashed
		d.lastHeartbeat = n.lastHeartbeat
		d.activeSince = n.activeSince
		d.ActiveTime = n.activeTime
		d.Used = 0
		d.sessions = 0
		d.xferOut = 0
		d.pendingAdds = 0
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
		b := c.blocks[bid]
		for _, dn := range reps {
			d := c.datanodes[dn]
			d.blocks.Add(b.ID)
			d.Used += b.Size
		}
	}

	// Derived indexes: placement load index and under-replication set.
	c.loadIdx = nil
	c.idxMin = 0
	for _, d := range c.datanodes {
		d.inIdx = false
		c.reindexNode(d)
	}
	c.underSet = make(map[BlockID]struct{})
	for _, b := range c.blocks {
		if b != nil {
			c.reassessBlock(b)
		}
	}

	c.partitioned = make(map[int]bool, len(st.partitioned))
	for _, r := range st.partitioned {
		c.partitioned[r] = true
	}
	c.scrubCursor = st.scrubCursor
	c.metrics = st.metrics
	c.activeReads = 0
}

// ckptDecoder reads checkpoint fields from an in-memory payload, folding
// errors so call sites stay linear. It indexes the payload slice directly
// — a reader interface in this loop costs two dynamic calls per varint,
// which dominates at a million blocks.
type ckptDecoder struct {
	data   []byte
	blob   string // one string copy of data; str returns windows of it
	off    int
	err    error
	idSlab []BlockID // chunked backing store for idList results
}

func (d *ckptDecoder) rem() int { return len(d.data) - d.off }

func (d *ckptDecoder) fail(what string, err error) {
	if d.err == nil {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		d.err = fmt.Errorf("hdfs: checkpoint decode %s: %w", what, err)
	}
}

func (d *ckptDecoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail(what, varintErr(n))
		return 0
	}
	d.off += n
	return v
}

func (d *ckptDecoder) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail(what, varintErr(n))
		return 0
	}
	d.off += n
	return v
}

func varintErr(n int) error {
	if n < 0 {
		return fmt.Errorf("varint overflow")
	}
	return io.ErrUnexpectedEOF
}

func (d *ckptDecoder) f64(what string) float64 { return math.Float64frombits(d.uvarint(what)) }

func (d *ckptDecoder) boolv(what string) bool {
	v := d.uvarint(what)
	if d.err == nil && v > 1 {
		d.fail(what, fmt.Errorf("bad bool %d", v))
	}
	return v == 1
}

func (d *ckptDecoder) str(what string) string {
	n := d.uvarint(what)
	if d.err != nil {
		return ""
	}
	if n > maxCkptString {
		d.fail(what, fmt.Errorf("length %d too large", n))
		return ""
	}
	if uint64(d.rem()) < n {
		d.fail(what, io.ErrUnexpectedEOF)
		return ""
	}
	s := d.blob[d.off : d.off+int(n)]
	d.off += int(n)
	return s
}

func (d *ckptDecoder) bytes(what string, b []byte) {
	if d.err != nil {
		return
	}
	if d.rem() < len(b) {
		d.fail(what, io.ErrUnexpectedEOF)
		return
	}
	copy(b, d.data[d.off:d.off+len(b)])
	d.off += len(b)
}

// idList reads a delta-encoded, strictly ascending block ID list whose
// members must lie in [0, limit).
func (d *ckptDecoder) idList(what string, limit BlockID) []BlockID {
	n := d.uvarint(what)
	if d.err != nil {
		return nil
	}
	if n > uint64(limit) {
		d.fail(what, fmt.Errorf("%d IDs with only %d blocks", n, limit))
		return nil
	}
	// Lists carve windows from a shared slab: a million per-file block
	// lists allocated individually is measurable at restore time.
	if uint64(len(d.idSlab)) < n {
		d.idSlab = make([]BlockID, max(1<<16, int(n)))
	}
	out := d.idSlab[:0:n]
	d.idSlab = d.idSlab[n:]
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		delta := d.varint(what)
		if d.err != nil {
			return nil
		}
		if i > 0 && delta <= 0 {
			d.fail(what, fmt.Errorf("IDs not strictly ascending after %d", prev))
			return nil
		}
		v := prev + delta
		if v < 0 || v >= int64(limit) {
			d.fail(what, fmt.Errorf("ID %d out of range [0,%d)", v, limit))
			return nil
		}
		out = append(out, BlockID(v))
		prev = v
	}
	return out
}
