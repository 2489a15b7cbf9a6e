// Package hdfs is a discrete-event model of the Hadoop Distributed File
// System as the ERMS paper uses it: a namenode (namespace + block map +
// pluggable replica placement), datanodes with finite disk bandwidth,
// session limits and capacities, a client read path with replica selection
// and retry, a replication engine for adding/removing replicas, erasure
// coding of cold files, datanode failure with re-replication, and audit
// log emission.
//
// All I/O is simulated as flows on a netsim.Fabric, so contention (many
// readers piling onto a hot replica, rack uplink saturation) emerges from
// the model rather than being scripted.
package hdfs

import (
	"fmt"
	"sort"
	"time"

	"erms/internal/auditlog"
	"erms/internal/metrics"
	"erms/internal/netsim"
	"erms/internal/sim"
	"erms/internal/topology"
	"erms/internal/trace"
)

// BlockID identifies a block cluster-wide.
type BlockID int64

// DatanodeID indexes a datanode; it equals the topology.NodeID the
// datanode runs on.
type DatanodeID int

// NodeState is a datanode's availability state. Active and Standby
// implement the paper's Active/Standby storage model; vanilla HDFS marks
// every node Active.
type NodeState int

// Datanode states.
const (
	// StateActive nodes serve reads and receive default-policy replicas.
	StateActive NodeState = iota
	// StateStandby nodes are powered off; ERMS commissions them to absorb
	// hot-data replicas. They hold data but serve nothing while standby.
	StateStandby
	// StateDown nodes have failed; their replicas are lost until
	// re-replicated.
	StateDown
	// StateDecommissioning nodes are being drained: they keep serving
	// reads and replication sources but receive no new replicas.
	StateDecommissioning
	// StateDecommissioned nodes have been fully drained and removed from
	// service.
	StateDecommissioned
)

func (s NodeState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateStandby:
		return "standby"
	case StateDown:
		return "down"
	case StateDecommissioning:
		return "decommissioning"
	case StateDecommissioned:
		return "decommissioned"
	}
	return "unknown"
}

// serves reports whether a node in this state answers client reads.
func (s NodeState) serves() bool {
	return s == StateActive || s == StateDecommissioning
}

// Block is one block of a file (data or erasure parity).
type Block struct {
	ID     BlockID
	File   string
	Index  int
	Size   float64
	Parity bool
	Group  int // stripe group for erasure coding
	// fileID interns the owning file: hot paths resolve the INode through
	// Cluster.fileOf instead of a string map lookup on File.
	fileID int
}

// INode is a file's namespace entry.
type INode struct {
	Path       string
	Size       float64
	Blocks     []BlockID
	Parity     []BlockID
	TargetRepl int
	Encoded    bool
	CreatedAt  time.Duration
	// EncodeK/EncodeM record the stripe geometry once Encoded.
	EncodeK, EncodeM int
	// id is the interned file index into Cluster.fileByID; it survives
	// renames and is never reused.
	id int
}

// Datanode models one storage server.
type Datanode struct {
	ID           DatanodeID
	Name         string
	State        NodeState
	Capacity     float64
	Used         float64
	MaxSessions  int
	sessions     int
	xferOut      int     // outbound replication transfers in flight
	xferIn       int     // inbound replication transfers in flight
	pendingAdds  int     // inbound replicas scheduled but not yet landed
	pendingBytes float64 // bytes those pending replicas will occupy
	waiting      []*pendingSession
	blocks       blockSet
	// activeFlows tracks flows being served *from* this node so they can be
	// killed with it (or with the network path to their peer).
	activeFlows map[*netsim.Flow]*flowHandle
	// activeUptime accumulates time spent non-standby, for energy
	// accounting.
	activeSince time.Duration
	ActiveTime  time.Duration

	// Stale marks a node that has missed heartbeats for StaleTimeout:
	// reads deprioritize it and writes exclude it, but its replicas still
	// count as live (HDFS stale-node semantics). Cleared when heartbeats
	// resume or the node is declared dead.
	Stale bool
	// crashed means the node's process is gone but, under the heartbeat
	// model, the namenode has not noticed yet. With heartbeats disabled
	// death is declared instantly and crashed is never observable.
	crashed bool
	// stalled suppresses the node's heartbeats without touching its data
	// plane: the process is alive and serving, but the namenode stops
	// hearing from it (GC pause, control-plane congestion). The chaos
	// node-flapping fault toggles it to drive stale→rejoin→stale cycles.
	stalled bool
	// lastHeartbeat is the virtual time of the last heartbeat the
	// namenode received from this node.
	lastHeartbeat time.Duration
	// corrupt flags replicas whose on-disk bytes have rotted; invisible
	// until a read checksum fails or the scrubber verifies the block.
	corrupt map[BlockID]bool
	// reported tracks corrupt replicas already surfaced once but kept
	// because they are the block's last copy.
	reported map[BlockID]bool

	// idxLoad/inIdx track the node's registration in the cluster's
	// placement load index (see Cluster.reindexNode).
	idxLoad int
	inIdx   bool
}

// flowHandle is the per-flow record a datanode keeps for transfers it
// serves: how to abort the transfer, and the other endpoint (for cutting
// flows that cross a fresh rack partition). peer < 0 means an external
// client.
type flowHandle struct {
	abort func()
	peer  topology.NodeID
}

type pendingSession struct {
	start    func()
	abort    func()
	canceled bool
}

// Sessions returns the number of in-flight serving sessions.
func (d *Datanode) Sessions() int { return d.sessions }

// QueueLen returns the number of admissions waiting for a session slot.
func (d *Datanode) QueueLen() int { return len(d.waiting) }

// HasBlock reports whether the datanode stores a replica of b.
func (d *Datanode) HasBlock(b BlockID) bool { return d.blocks.Has(b) }

// NumBlocks returns the number of replicas the node stores.
func (d *Datanode) NumBlocks() int { return d.blocks.Len() }

// PendingAdds returns inbound replica copies scheduled but not landed.
// Placement policies add it to NumBlocks so a burst of concurrent
// placements (whole-at-once replication) spreads instead of piling onto
// the momentarily-emptiest node.
func (d *Datanode) PendingAdds() int { return d.pendingAdds }

// PlacementLoad is the load metric placement policies sort by.
func (d *Datanode) PlacementLoad() int { return d.blocks.Len() + d.pendingAdds }

// Free returns remaining capacity in bytes.
func (d *Datanode) Free() float64 { return d.Capacity - d.Used }

// UncommittedFree returns capacity not yet spoken for: free space minus
// the bytes of replica copies already in flight toward this node.
// Admission checks use it so a burst of concurrent copies cannot
// oversubscribe a disk.
func (d *Datanode) UncommittedFree() float64 { return d.Capacity - d.Used - d.pendingBytes }

// OpenActiveInterval returns how long the node has been active since its
// last state transition (zero when it is not currently active). Together
// with ActiveTime it gives total uptime for energy accounting. A crashed
// node still carries StateActive until the heartbeat detector declares it
// dead, but Kill already closed its interval — its process is not running,
// so no interval is open.
func (d *Datanode) OpenActiveInterval(now time.Duration) time.Duration {
	if d.State != StateActive || d.crashed {
		return 0
	}
	return now - d.activeSince
}

// Crashed reports whether the node's process is dead but the namenode has
// not yet declared it (heartbeat mode only).
func (d *Datanode) Crashed() bool { return d.crashed }

// Eligible reports whether the node can receive new replicas: active, not
// stale, and (as far as the namenode knows) alive.
func (d *Datanode) Eligible() bool {
	return d.State == StateActive && !d.Stale && !d.crashed
}

// canServe reports whether the node answers reads right now: its state
// serves and its process is actually up.
func (d *Datanode) canServe() bool { return d.State.serves() && !d.crashed }

// CorruptBlock reports whether this node's replica of b is flagged corrupt.
func (d *Datanode) CorruptBlock(b BlockID) bool { return d.corrupt[b] }

// NumCorrupt returns the number of corrupt replicas currently on the node.
func (d *Datanode) NumCorrupt() int { return len(d.corrupt) }

// Config sizes the simulated HDFS cluster.
type Config struct {
	Topology *topology.Topology // required
	// BlockSize defaults to 64 MB (the paper's Hadoop 0.20 default).
	BlockSize float64
	// DefaultReplication defaults to 3.
	DefaultReplication int
	// NodeCapacity defaults to 250 GB per datanode.
	NodeCapacity float64
	// MaxSessionsPerNode bounds concurrent serving sessions per datanode
	// ("a datanode can simultaneously support a limited number of
	// sessions"); excess requests queue. Defaults to 64.
	MaxSessionsPerNode int
	// ReplCommandLatency models the delay before a datanode acts on a
	// replication command (commands piggyback on heartbeats in HDFS).
	// Defaults to 1s. Each SetReplication round pays it once, which is why
	// raising the factor one step at a time loses to going straight to the
	// target (the paper's Figure 7).
	ReplCommandLatency time.Duration
	// StandbyNodes marks these datanodes standby at start (ERMS model).
	StandbyNodes []DatanodeID
	// KeepAuditRecords retains audit records in memory (tests/trace export).
	KeepAuditRecords bool
	// Heartbeat enables the heartbeat failure detector. When disabled
	// (default), Kill notifies the manager instantly — the pre-heartbeat
	// behaviour most unit tests rely on.
	Heartbeat HeartbeatConfig
	// SafeMode enables the namenode safe-mode degradation guard. Off by
	// default; like Heartbeat it is detector tuning, excluded from the
	// checkpoint config digest.
	SafeMode SafeModeConfig
}

func (c *Config) applyDefaults() {
	c.Heartbeat.applyDefaults()
	c.SafeMode.applyDefaults()
	if c.BlockSize <= 0 {
		c.BlockSize = 64 * topology.MB
	}
	if c.DefaultReplication <= 0 {
		c.DefaultReplication = 3
	}
	if c.NodeCapacity <= 0 {
		c.NodeCapacity = 250 * topology.GB
	}
	if c.MaxSessionsPerNode <= 0 {
		c.MaxSessionsPerNode = 64
	}
	if c.ReplCommandLatency <= 0 {
		c.ReplCommandLatency = time.Second
	}
}

// Metrics aggregates cluster-wide counters.
type Metrics struct {
	ReadsStarted   int
	ReadsCompleted int
	ReadsFailed    int
	BytesRead      float64
	BlockReads     int
	NodeLocalReads int // block reads served from the client's node
	RackLocalReads int // served from the client's rack
	RemoteReads    int // served across racks
	// Ranged-read accounting (ReadRange). Ranged reads also count in the
	// Reads*/BlockReads totals above; these split out the partial-read
	// traffic. Transient stats, like the safe-mode counters: not
	// checkpointed.
	RangedReads       int     // ReadRange calls started
	PartialBlockReads int     // block reads that streamed less than the block
	RangedBytesRead   float64 // bytes served to ranged readers
	ReplicasAdded     int
	ReplicasRemoved   int
	ReplicationMB     float64 // bytes moved by replication, in MB
	FilesEncoded      int
	BlocksRebuilt     int
	// Failure-model counters (heartbeat + scrubber).
	StaleTransitions int     // nodes that crossed the stale threshold
	ReplicasScrubbed int     // replicas the background scrubber verified
	CorruptDetected  int     // corrupt replicas surfaced (scrub or read)
	ChecksumFailures int     // client reads that hit a corrupt replica
	CorruptBytes     float64 // bytes of corrupt replicas quarantined
	// Degradation counters (safe mode + epoch fencing).
	SafeModeEntries      int // times the namenode entered safe mode
	SafeModeExits        int // times it left safe mode
	SafeModeRejections   int // mutations rejected with ErrSafeMode
	FencedWritesRejected int // mutations rejected with ErrFenced
	// FencedWritesApplied counts journal entries appended while the writer
	// was fenced — the split-brain interleaving the gates exist to prevent.
	// It must stay zero; the epoch invariant oracle asserts that.
	FencedWritesApplied int
}

// BlockReadEvent describes one served block read; ERMS feeds these into the
// CEP engine alongside the file-level audit log.
type BlockReadEvent struct {
	Time     time.Duration
	Path     string
	Block    BlockID
	Datanode DatanodeID
	Client   topology.NodeID
	// Bytes is how much of the block this read streams — less than the
	// block size for ranged (partial) reads.
	Bytes float64
}

// Cluster is the simulated HDFS deployment: namenode state plus datanodes.
type Cluster struct {
	clock  sim.Clock
	topo   *topology.Topology
	fabric *netsim.Fabric
	cfg    Config

	files      map[string]*INode
	fileByID   []*INode // interned files, indexed by INode.id; nil after delete
	pathsCache []string // sorted FilePaths memo; nil after namespace changes
	// blocks and replicas are dense slices indexed by BlockID (IDs are
	// assigned monotonically and never reused); a nil blocks entry marks a
	// deleted block. liveBlocks counts the non-nil entries.
	blocks     []*Block
	replicas   [][]DatanodeID
	liveBlocks int
	datanodes  []*Datanode
	nextBlock  BlockID

	// readCounts is the per-block read tally (dense, indexed by BlockID,
	// grown with the block map). Partial reads count like whole ones: the
	// tally is access heat, not byte volume. Transient stats — reset by
	// restore, never checkpointed.
	readCounts []int64

	// underSet holds the blocks currently below their replication target,
	// maintained incrementally at every replica/target mutation so
	// UnderReplicated never rescans the block space.
	underSet map[BlockID]struct{}

	// loadIdx buckets placement-eligible datanodes by PlacementLoad; each
	// bucket is a bitset over node IDs, so candidate selection walks nodes
	// in exactly the (load, ID) order the old linear scan sorted into.
	// idxMin is a lazily-advanced lower bound on the first occupied bucket.
	loadIdx []nodeSet
	idxMin  int

	placement Policy
	audit     *auditlog.Log
	metrics   Metrics

	// journal, when attached, receives a typed write-ahead record for
	// every durable namenode mutation; replaying stands a failover twin
	// up from a checkpoint. replaying suppresses re-emission while the
	// journal's own entries are being applied. ckptJournalSeq carries the
	// journal position of the checkpoint this cluster restored from.
	journal        *auditlog.Journal
	replaying      bool
	ckptJournalSeq uint64

	// fedMoves is the pending cross-shard move table (see federation.go):
	// one record per open move whose source is this shard, maintained by
	// both the live marker path and journal replay. Nil when this cluster
	// has never sourced a move.
	fedMoves map[string]*MoveRecord

	// epoch is this namenode's writer epoch. It is legitimate only while it
	// matches the attached journal's epoch; a standby promotion bumps the
	// journal's epoch, fencing this writer (see Fenced). Transient election
	// state: not checkpointed, not part of StateDigest.
	epoch uint64

	// Safe-mode state (see safemode.go). Transient detector output, never
	// checkpointed or digested.
	safeMode       bool
	safeModeManual bool          // entered via EnterSafeMode; only LeaveSafeMode exits
	healthySince   time.Duration // when thresholds were last re-met (-1: unhealthy)
	onSafeMode     []func(bool)

	// partitioned racks are cut off from the rest of the cluster (and
	// from external clients); intra-rack traffic still works.
	partitioned map[int]bool
	scrubCursor int

	activeReads int
	onBlockRead []func(BlockReadEvent)
	onDeadNode  []func(DatanodeID)
	onNodeUp    []func(DatanodeID)
	onCorrupt   []func(BlockID, DatanodeID)

	// tracer records hdfs.* spans (reads, replica copies, encode/decode,
	// commission/standby instants); nil disables tracing.
	tracer *trace.Tracer
}

// New builds a cluster with one datanode per topology node. All of the
// cluster's timers — heartbeats, the safe-mode monitor, the scrubber,
// replication command latency — schedule through clock, the seam that
// lets the same cluster run on pure simulated time or paced against a
// wall clock in service mode.
func New(clock sim.Clock, cfg Config) *Cluster {
	if cfg.Topology == nil {
		panic("hdfs: Config.Topology is required")
	}
	cfg.applyDefaults()
	c := &Cluster{
		clock:       clock,
		topo:        cfg.Topology,
		fabric:      netsim.New(clock, cfg.Topology),
		cfg:         cfg,
		files:       make(map[string]*INode),
		underSet:    make(map[BlockID]struct{}),
		partitioned: make(map[int]bool),
		audit:       auditlog.NewLog(cfg.KeepAuditRecords),
	}
	c.placement = NewDefaultPolicy()
	standby := map[DatanodeID]bool{}
	for _, id := range cfg.StandbyNodes {
		standby[id] = true
	}
	for _, n := range cfg.Topology.Nodes {
		d := &Datanode{
			ID:          DatanodeID(n.ID),
			Name:        n.Name,
			Capacity:    cfg.NodeCapacity,
			MaxSessions: cfg.MaxSessionsPerNode,
			activeFlows: make(map[*netsim.Flow]*flowHandle),
			corrupt:     make(map[BlockID]bool),
			reported:    make(map[BlockID]bool),
		}
		if standby[d.ID] {
			d.State = StateStandby
		}
		c.datanodes = append(c.datanodes, d)
		c.reindexNode(d)
	}
	if cfg.Heartbeat.Enabled {
		sim.NewTicker(clock, c.cfg.Heartbeat.Interval, c.heartbeatTick)
	}
	c.epoch = 1
	c.healthySince = -1
	if cfg.SafeMode.Enabled {
		sim.NewTicker(clock, c.cfg.SafeMode.CheckInterval, c.safeModeTick)
	}
	return c
}

// Clock returns the scheduling clock the cluster runs on — the seam every
// timer goes through (see sim.Clock).
func (c *Cluster) Clock() sim.Clock { return c.clock }

// Topology returns the physical layout.
func (c *Cluster) Topology() *topology.Topology { return c.topo }

// Fabric returns the network simulator (for experiments inspecting link
// usage).
func (c *Cluster) Fabric() *netsim.Fabric { return c.fabric }

// Config returns the cluster configuration (with defaults applied).
func (c *Cluster) Config() Config { return c.cfg }

// Audit returns the audit log.
func (c *Cluster) Audit() *auditlog.Log { return c.audit }

// Metrics returns a snapshot of the counters.
func (c *Cluster) Metrics() Metrics { return c.metrics }

// SetTracer installs a span tracer on the cluster and its network fabric.
// Call it before wiring consumers (the ERMS manager reads it via Tracer).
// Nil disables tracing with zero overhead.
func (c *Cluster) SetTracer(tr *trace.Tracer) {
	c.tracer = tr
	c.fabric.SetTracer(tr)
}

// Tracer returns the installed tracer (nil when tracing is disabled).
func (c *Cluster) Tracer() *trace.Tracer { return c.tracer }

// RegisterMetrics registers the cluster's counters (and the fabric's)
// into a metrics registry as snapshot-time gauges.
func (c *Cluster) RegisterMetrics(r *metrics.Registry) {
	m := &c.metrics
	r.GaugeFunc("hdfs_reads_started_total", func() float64 { return float64(m.ReadsStarted) })
	r.GaugeFunc("hdfs_reads_completed_total", func() float64 { return float64(m.ReadsCompleted) })
	r.GaugeFunc("hdfs_reads_failed_total", func() float64 { return float64(m.ReadsFailed) })
	r.GaugeFunc("hdfs_bytes_read_total", func() float64 { return m.BytesRead })
	r.GaugeFunc("hdfs_block_reads_total", func() float64 { return float64(m.BlockReads) })
	r.GaugeFunc("hdfs_node_local_reads_total", func() float64 { return float64(m.NodeLocalReads) })
	r.GaugeFunc("hdfs_rack_local_reads_total", func() float64 { return float64(m.RackLocalReads) })
	r.GaugeFunc("hdfs_remote_reads_total", func() float64 { return float64(m.RemoteReads) })
	r.GaugeFunc("hdfs_ranged_reads_total", func() float64 { return float64(m.RangedReads) })
	r.GaugeFunc("hdfs_partial_block_reads_total", func() float64 { return float64(m.PartialBlockReads) })
	r.GaugeFunc("hdfs_ranged_bytes_read_total", func() float64 { return m.RangedBytesRead })
	r.GaugeFunc("hdfs_replicas_added_total", func() float64 { return float64(m.ReplicasAdded) })
	r.GaugeFunc("hdfs_replicas_removed_total", func() float64 { return float64(m.ReplicasRemoved) })
	r.GaugeFunc("hdfs_replication_mb_total", func() float64 { return m.ReplicationMB })
	r.GaugeFunc("hdfs_files_encoded_total", func() float64 { return float64(m.FilesEncoded) })
	r.GaugeFunc("hdfs_blocks_rebuilt_total", func() float64 { return float64(m.BlocksRebuilt) })
	r.GaugeFunc("hdfs_stale_transitions_total", func() float64 { return float64(m.StaleTransitions) })
	r.GaugeFunc("hdfs_replicas_scrubbed_total", func() float64 { return float64(m.ReplicasScrubbed) })
	r.GaugeFunc("hdfs_checksum_failures_total", func() float64 { return float64(m.ChecksumFailures) })
	r.GaugeFunc("hdfs_corrupt_detected_total", func() float64 { return float64(m.CorruptDetected) })
	r.GaugeFunc("hdfs_corrupt_bytes_total", func() float64 { return m.CorruptBytes })
	r.GaugeFunc("hdfs_safemode_entries_total", func() float64 { return float64(m.SafeModeEntries) })
	r.GaugeFunc("hdfs_safemode_exits_total", func() float64 { return float64(m.SafeModeExits) })
	r.GaugeFunc("hdfs_safemode_rejections_total", func() float64 { return float64(m.SafeModeRejections) })
	r.GaugeFunc("hdfs_fenced_writes_rejected_total", func() float64 { return float64(m.FencedWritesRejected) })
	r.GaugeFunc("hdfs_fenced_writes_applied_total", func() float64 { return float64(m.FencedWritesApplied) })
	r.GaugeFunc("hdfs_safemode_active", func() float64 {
		if c.safeMode {
			return 1
		}
		return 0
	})
	r.GaugeFunc("hdfs_active_reads", func() float64 { return float64(c.activeReads) })
	r.GaugeFunc("hdfs_files", func() float64 { return float64(len(c.files)) })
	r.GaugeFunc("hdfs_bytes_stored", c.TotalUsed)
	r.GaugeFunc("hdfs_active_nodes", func() float64 { return float64(len(c.Active())) })
	r.GaugeFunc("hdfs_standby_nodes", func() float64 { return float64(len(c.Standby())) })
	c.fabric.RegisterMetrics(r)
}

// SetPlacementPolicy installs a pluggable replica placement policy (the
// paper: "we implement a pluggable replica placement strategy for HDFS").
func (c *Cluster) SetPlacementPolicy(p Policy) { c.placement = p }

// PlacementPolicy returns the installed policy.
func (c *Cluster) PlacementPolicy() Policy { return c.placement }

// Datanode returns the datanode with the given ID.
func (c *Cluster) Datanode(id DatanodeID) *Datanode { return c.datanodes[id] }

// Datanodes returns all datanodes (index == DatanodeID).
func (c *Cluster) Datanodes() []*Datanode { return c.datanodes }

// NumDatanodes returns the cluster size.
func (c *Cluster) NumDatanodes() int { return len(c.datanodes) }

// ActiveDatanodes lists datanodes in the given state.
func (c *Cluster) inState(s NodeState) []DatanodeID {
	var out []DatanodeID
	for _, d := range c.datanodes {
		if d.State == s {
			out = append(out, d.ID)
		}
	}
	return out
}

// Active returns the active datanode IDs.
func (c *Cluster) Active() []DatanodeID { return c.inState(StateActive) }

// Standby returns the standby datanode IDs.
func (c *Cluster) Standby() []DatanodeID { return c.inState(StateStandby) }

// File returns the INode for path, or nil.
func (c *Cluster) File(path string) *INode { return c.files[path] }

// FileTable returns the interned file table: every file ever created, in
// creation order, a deleted one as a nil slot. It is the namespace's cheap
// iteration order — no sort, no lookup, nothing to rebuild after a mutation
// — for sweeps whose result does not depend on visit order (the judge sorts
// its verdicts; an orphan scan collects a handful). Callers must not mutate
// it, and must not create or delete files while ranging over it.
func (c *Cluster) FileTable() []*INode { return c.fileByID }

// FilePaths returns every file path in the namespace, sorted — for callers
// to whom the order is the point (oracles, chaos plans, reports). The slice
// is memoized until the namespace changes, so callers must not mutate it;
// the first call after a mutation re-sorts every path.
func (c *Cluster) FilePaths() []string {
	if c.pathsCache == nil {
		c.pathsCache = make([]string, 0, len(c.files))
		for p := range c.files {
			c.pathsCache = append(c.pathsCache, p)
		}
		sort.Strings(c.pathsCache)
	}
	return c.pathsCache
}

// Files returns the number of files.
func (c *Cluster) Files() int { return len(c.files) }

// Block returns block metadata (nil for unknown or deleted blocks).
func (c *Cluster) Block(id BlockID) *Block {
	if id < 0 || int(id) >= len(c.blocks) {
		return nil
	}
	return c.blocks[id]
}

// Replicas returns the datanodes holding block id (do not mutate).
func (c *Cluster) Replicas(id BlockID) []DatanodeID {
	if id < 0 || int(id) >= len(c.replicas) {
		return nil
	}
	return c.replicas[id]
}

// LiveBlocks returns the number of blocks currently in the block map.
func (c *Cluster) LiveBlocks() int { return c.liveBlocks }

// BlockReadCount returns how many reads block id has served since the
// cluster (or its restore) started — ranged reads count like whole-block
// ones. Zero for unknown or deleted blocks.
func (c *Cluster) BlockReadCount(id BlockID) int64 {
	if id < 0 || int(id) >= len(c.readCounts) {
		return 0
	}
	return c.readCounts[id]
}

// FileBlockReads sums the per-block read tallies of a file's data blocks —
// the read-accounting view the partial-read scenarios assert against.
func (c *Cluster) FileBlockReads(path string) int64 {
	f := c.files[path]
	if f == nil {
		return 0
	}
	var sum int64
	for _, bid := range f.Blocks {
		sum += c.BlockReadCount(bid)
	}
	return sum
}

// fileOf resolves a block's owning file through the interned file table
// (nil once the file is deleted).
func (c *Cluster) fileOf(b *Block) *INode {
	if b.fileID < 0 || b.fileID >= len(c.fileByID) {
		return nil
	}
	return c.fileByID[b.fileID]
}

// registerFile interns f and installs it in the namespace.
func (c *Cluster) registerFile(f *INode) {
	f.id = len(c.fileByID)
	c.fileByID = append(c.fileByID, f)
	c.files[f.Path] = f
	c.pathsCache = nil
	c.jlog(auditlog.Entry{Op: auditlog.OpFileAdd, Path: f.Path, File: f.id,
		Size: f.Size, Target: f.TargetRepl})
}

// addBlock registers a freshly minted block (its ID must be the next in
// sequence) in the dense block map.
func (c *Cluster) addBlock(b *Block) {
	if b.ID != c.nextBlock {
		panic(fmt.Sprintf("hdfs: block %d minted out of sequence (next %d)", b.ID, c.nextBlock))
	}
	c.nextBlock++
	c.blocks = append(c.blocks, b)
	c.replicas = append(c.replicas, nil)
	c.readCounts = append(c.readCounts, 0)
	c.liveBlocks++
	c.reassessBlock(b)
	c.jlog(auditlog.Entry{Op: auditlog.OpBlockAdd, Block: int64(b.ID), File: b.fileID,
		Size: b.Size, Index: b.Index, Flag: b.Parity, Group: b.Group})
}

// dropBlock removes a block whose replicas have already been detached.
func (c *Cluster) dropBlock(id BlockID) {
	if c.blocks[id] == nil {
		return
	}
	c.blocks[id] = nil
	c.replicas[id] = nil
	c.readCounts[id] = 0
	c.liveBlocks--
	delete(c.underSet, id)
	c.jlog(auditlog.Entry{Op: auditlog.OpBlockDrop, Block: int64(id)})
}

// ReplicationOf returns the current replica count of a file's first block
// (files keep uniform replication in this model), or 0 for unknown paths.
func (c *Cluster) ReplicationOf(path string) int { return c.Replication(c.files[path]) }

// Replication is ReplicationOf for a caller that already holds the INode
// (nil reads as 0), sparing the namespace lookup.
func (c *Cluster) Replication(f *INode) int {
	if f == nil || len(f.Blocks) == 0 {
		return 0
	}
	return len(c.replicas[f.Blocks[0]])
}

// TotalUsed returns bytes stored across all datanodes (Figure 5's storage
// utilization).
func (c *Cluster) TotalUsed() float64 {
	var sum float64
	for _, d := range c.datanodes {
		sum += d.Used
	}
	return sum
}

// ActiveReads returns the number of file reads in flight; ERMS's idle probe
// uses it.
func (c *Cluster) ActiveReads() int { return c.activeReads }

// OnBlockRead registers a callback fired when a block read completes
// admission and begins streaming (ERMS's CEP feed).
func (c *Cluster) OnBlockRead(fn func(BlockReadEvent)) {
	c.onBlockRead = append(c.onBlockRead, fn)
}

// OnDatanodeDown registers a callback fired when a datanode dies — with
// heartbeats enabled, that is when DeadTimeout expires, not when the
// process crashes.
func (c *Cluster) OnDatanodeDown(fn func(DatanodeID)) {
	c.onDeadNode = append(c.onDeadNode, fn)
}

// OnDatanodeUp registers a callback fired when a datanode (re)joins
// service: Restart of a dead node or Commission of a standby one. The
// manager uses it to refresh ads and retry repairs that previously found
// no target.
func (c *Cluster) OnDatanodeUp(fn func(DatanodeID)) {
	c.onNodeUp = append(c.onNodeUp, fn)
}

// OnCorruptReplica registers a callback fired when a corrupt replica is
// detected (by the scrubber or a failed read checksum). The replica has
// already been quarantined when the callback runs, unless it was the
// block's last copy.
func (c *Cluster) OnCorruptReplica(fn func(BlockID, DatanodeID)) {
	c.onCorrupt = append(c.onCorrupt, fn)
}

// OnSafeMode registers a callback fired on every safe-mode transition; the
// argument is true on entry, false on exit. The manager uses exit to
// release repair decisions deferred while the namenode was degraded.
func (c *Cluster) OnSafeMode(fn func(bool)) {
	c.onSafeMode = append(c.onSafeMode, fn)
}

// clientIP fabricates a stable client address for audit records. Negative
// node IDs (no locality hint) map to the namenode's address.
func (c *Cluster) clientIP(n topology.NodeID) string {
	if n < 0 || int(n) >= c.topo.NumNodes() {
		return "10.0.0.1"
	}
	return fmt.Sprintf("10.%d.0.%d", c.topo.Rack(n), int(n))
}

// CreateFile installs a file of the given size with replication repl
// (0 means the cluster default), placing replicas with the current policy.
// Creation is instantaneous (bootstrap); use it to preload datasets. The
// writer hint places the first replica on that node per HDFS semantics
// (pass -1 for no locality hint).
func (c *Cluster) CreateFile(path string, size float64, repl int, writer topology.NodeID) (*INode, error) {
	if err := c.writable(); err != nil {
		return nil, err
	}
	if _, ok := c.files[path]; ok {
		return nil, fmt.Errorf("hdfs: file %q exists", path)
	}
	if size <= 0 {
		return nil, fmt.Errorf("hdfs: file size must be positive")
	}
	if repl <= 0 {
		repl = c.cfg.DefaultReplication
	}
	f := &INode{
		Path:       path,
		Size:       size,
		TargetRepl: repl,
		CreatedAt:  c.clock.Now(),
	}
	c.registerFile(f)
	nBlocks := int(size / c.cfg.BlockSize)
	if float64(nBlocks)*c.cfg.BlockSize < size {
		nBlocks++
	}
	for i := 0; i < nBlocks; i++ {
		bs := c.cfg.BlockSize
		if i == nBlocks-1 {
			bs = size - float64(nBlocks-1)*c.cfg.BlockSize
		}
		b := &Block{ID: c.nextBlock, File: path, Index: i, Size: bs, fileID: f.id}
		c.addBlock(b)
		f.Blocks = append(f.Blocks, b.ID)
		targets := c.placement.ChooseTargets(c, b, repl, DatanodeID(writer), nil)
		if len(targets) == 0 {
			c.unwindCreate(f)
			return nil, fmt.Errorf("hdfs: no targets for block %d of %q", b.ID, path)
		}
		for _, t := range targets {
			c.attachReplica(b, t)
		}
	}
	c.audit.Append(auditlog.Record{
		Time: c.clock.Now(), Allowed: true, UGI: "hadoop",
		IP: c.clientIP(writer), Cmd: auditlog.CmdCreate, Src: path,
	})
	return f, nil
}

// unwindCreate rolls back a partially built CreateFile so a placement
// failure does not leak orphan blocks into the block map.
func (c *Cluster) unwindCreate(f *INode) {
	for _, bid := range f.Blocks {
		b := c.blocks[bid]
		for _, dn := range append([]DatanodeID(nil), c.replicas[bid]...) {
			c.detachReplica(b, dn)
		}
		c.dropBlock(bid)
	}
	delete(c.files, f.Path)
	c.fileByID[f.id] = nil
	c.pathsCache = nil
	c.jlog(auditlog.Entry{Op: auditlog.OpFileDrop, File: f.id, Path: f.Path})
}

// DeleteFile removes a file and frees its replicas.
func (c *Cluster) DeleteFile(path string) error {
	if err := c.writable(); err != nil {
		return err
	}
	f := c.files[path]
	if f == nil {
		return fmt.Errorf("hdfs: no such file %q", path)
	}
	for _, ids := range [][]BlockID{f.Blocks, f.Parity} {
		for _, bid := range ids {
			b := c.blocks[bid]
			for _, dn := range append([]DatanodeID(nil), c.replicas[bid]...) {
				c.detachReplica(b, dn)
			}
			c.dropBlock(bid)
		}
	}
	delete(c.files, path)
	c.fileByID[f.id] = nil
	c.pathsCache = nil
	c.jlog(auditlog.Entry{Op: auditlog.OpFileDrop, File: f.id, Path: path})
	c.audit.Append(auditlog.Record{
		Time: c.clock.Now(), Allowed: true, UGI: "hadoop",
		IP: "10.0.0.1", Cmd: auditlog.CmdDelete, Src: path,
	})
	return nil
}

// Rename moves a file to a new path. Like the real namenode operation it
// is metadata-only and instantaneous; blocks stay where they are. The
// audit log records cmd=rename with both paths so downstream consumers
// (the ERMS judge migrates its per-file heat state) can follow the move.
func (c *Cluster) Rename(src, dst string) error {
	if err := c.writable(); err != nil {
		return err
	}
	f := c.files[src]
	if f == nil {
		return fmt.Errorf("hdfs: no such file %q", src)
	}
	if _, ok := c.files[dst]; ok {
		return fmt.Errorf("hdfs: destination %q exists", dst)
	}
	delete(c.files, src)
	f.Path = dst
	c.files[dst] = f
	c.pathsCache = nil
	for _, ids := range [][]BlockID{f.Blocks, f.Parity} {
		for _, bid := range ids {
			c.blocks[bid].File = dst
		}
	}
	c.jlog(auditlog.Entry{Op: auditlog.OpRename, File: f.id, Path: src, Dst: dst})
	c.audit.Append(auditlog.Record{
		Time: c.clock.Now(), Allowed: true, UGI: "hadoop",
		IP: "10.0.0.1", Cmd: auditlog.CmdRename, Src: src, Dst: dst,
	})
	return nil
}

// attachReplica registers a replica on dn (metadata + space). A freshly
// landed copy is pristine, so any corruption flag from a previous
// incarnation of the replica is cleared.
func (c *Cluster) attachReplica(b *Block, dn DatanodeID) {
	// A copy can land after its file was deleted: block IDs are never
	// reused, so pointer identity against the block map is exact. The
	// landed bytes belong to a dead block — discard them, exactly as a
	// real datanode invalidates an unknown block on its next report.
	// Attaching instead would leave the node's block set pointing at a
	// nil block-map entry, which the next declareDead walk dereferences.
	if c.blocks[b.ID] != b {
		return
	}
	d := c.datanodes[dn]
	if d.blocks.Has(b.ID) {
		return
	}
	d.blocks.Add(b.ID)
	d.Used += b.Size
	delete(d.corrupt, b.ID)
	delete(d.reported, b.ID)
	c.replicas[b.ID] = append(c.replicas[b.ID], dn)
	c.reassessBlock(b)
	c.reindexNode(d)
	c.jlog(auditlog.Entry{Op: auditlog.OpReplicaAdd, Block: int64(b.ID), Node: int(dn)})
}

// detachReplica removes a replica from dn.
func (c *Cluster) detachReplica(b *Block, dn DatanodeID) {
	d := c.datanodes[dn]
	if !d.blocks.Has(b.ID) {
		return
	}
	d.blocks.Remove(b.ID)
	d.Used -= b.Size
	delete(d.corrupt, b.ID)
	delete(d.reported, b.ID)
	reps := c.replicas[b.ID]
	for i, r := range reps {
		if r == dn {
			c.replicas[b.ID] = append(reps[:i], reps[i+1:]...)
			break
		}
	}
	c.reassessBlock(b)
	c.reindexNode(d)
	c.jlog(auditlog.Entry{Op: auditlog.OpReplicaDrop, Block: int64(b.ID), Node: int(dn)})
}
