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
)

// String names the state as status reports and errors print it.
func (s NodeState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateStandby:
		return "standby"
	case StateDown:
		return "down"
	}
	return "unknown"
}

// Block is one block of a file (data or erasure parity), as Cluster.Block
// derives it from the owning INode when asked: the block map keeps only
// where each block sits in its file, so a Block is a value, current as of
// the call — a rename after it does not reach the copy.
type Block struct {
	ID     BlockID
	File   string
	Index  int
	Size   float64
	Parity bool
	Group  int // stripe group for erasure coding
}

// blockRef is the block map's entry for one block ID: the owning file's
// intern slot and the block's position in that file — its data index, or
// ^j for parity j = s·m + p of its encode's layout (stripe s, parity p of
// m). The rest of a Block follows from the file (see geometry). A restore
// numbers parities by their place in the parity list, the same j unless
// an encode was retried over a failed attempt's parities. noBlock marks a
// dropped block.
type blockRef struct{ file, pos int32 }

var noBlock = blockRef{-1, -1}

// INode is a file's namespace entry: 80 bytes, one per file. A striped
// file's erasure layout lives in a Stripe beside it, so the files never
// encoded pay one nil pointer for it.
type INode struct {
	Path       string
	Size       float64
	Blocks     []BlockID
	stripe     *Stripe // nil until setGeometry; dropped by clearGeometry
	TargetRepl int
	CreatedAt  time.Duration
	Encoded    bool
	// id is the interned file index into Cluster.fileByID; it survives
	// renames and is never reused. The block map holds it as an int32 too.
	id int32
}

// Stripe is a striped file's erasure layout: the RS(K, M) geometry its
// encode set, and its parity blocks in stripe-layout order. A decode drops
// the parities and keeps the geometry, as a checkpoint records it.
type Stripe struct {
	K, M   int
	Parity []BlockID
}

// ID returns the file's slot in the interned file table (FileTable): stable
// across renames, never reused after a delete.
func (f *INode) ID() int { return int(f.id) }

// Parity returns the file's parity blocks (do not mutate); nil for a file
// never striped.
func (f *INode) Parity() []BlockID {
	if f.stripe == nil {
		return nil
	}
	return f.stripe.Parity
}

// Geometry returns the file's stripe geometry RS(k, m); 0, 0 for a file
// never striped.
func (f *INode) Geometry() (k, m int) {
	if f.stripe == nil {
		return 0, 0
	}
	return f.stripe.K, f.stripe.M
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
	xferOut      int            // outbound replication transfers in flight
	xferIn       int            // inbound replication transfers in flight
	inbound      []*inboundCopy // replica copies toward the node, not yet settled
	pendingBytes float64        // bytes those copies will occupy
	waiting      []*blockRead   // reads queued for a session, in arrival order
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
	// fault is what the node is really doing (see Fault); the namenode
	// learns of it only through missed heartbeats and failed transfers.
	fault Fault
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
func (d *Datanode) PendingAdds() int { return len(d.inbound) }

// PlacementLoad is the load metric placement policies sort by.
func (d *Datanode) PlacementLoad() int { return d.blocks.Len() + len(d.inbound) }

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
// dead, but the crash already closed its interval — its process is not
// running, so no interval is open.
func (d *Datanode) OpenActiveInterval(now time.Duration) time.Duration {
	if d.State != StateActive || d.fault.Crashed {
		return 0
	}
	return now - d.activeSince
}

// Fault returns what the node is really doing, as opposed to what the
// namenode believes of it (State, Stale).
func (d *Datanode) Fault() Fault { return d.fault }

// Down reports whether the node can do no work: declared dead, or crashed
// and not yet noticed. Nothing is copied to or from a down node, and it can
// take no new crash or mute.
func (d *Datanode) Down() bool { return d.State == StateDown || d.fault.Crashed }

// Eligible reports whether the node can receive new replicas: active, not
// stale, and alive. It reads the crash itself rather than the namenode's
// belief, a modelling shortcut: placement never picks a crashed node.
func (d *Datanode) Eligible() bool {
	return d.State == StateActive && !d.Stale && !d.fault.Crashed
}

// canServe reports whether the node answers reads right now: its state
// serves and its process is actually up.
func (d *Datanode) canServe() bool { return d.State == StateActive && !d.fault.Crashed }

// CorruptBlock reports whether this node's replica of b is flagged corrupt.
func (d *Datanode) CorruptBlock(b BlockID) bool { return d.corrupt[b] }

const (
	// BlockSize is every file's block size: 64 MB, the paper's Hadoop
	// 0.20 default.
	BlockSize float64 = 64 * topology.MB
	// DefaultReplication is the replication factor of a file created
	// without one, and the floor the judge lowers a cooled file to.
	DefaultReplication = 3
	// replCommandLatency models the delay before a datanode acts on a
	// replication command (commands piggyback on heartbeats in HDFS).
	// Each SetReplication round pays it once, which is why raising the
	// factor one step at a time loses to going straight to the target
	// (the paper's Figure 7).
	replCommandLatency = time.Second
)

// Config sizes the simulated HDFS cluster. The block size, the default
// replication and the replication-command latency are the constants
// above, not fields.
type Config struct {
	Topology *topology.Topology // required
	// NodeCapacity defaults to 250 GB per datanode.
	NodeCapacity float64
	// MaxSessionsPerNode bounds concurrent serving sessions per datanode
	// ("a datanode can simultaneously support a limited number of
	// sessions"); excess requests queue. Defaults to 64.
	MaxSessionsPerNode int
	// StandbyNodes marks these datanodes standby at start (ERMS model).
	// Every deployment takes its pool from SpreadStandby; tests name
	// explicit pools here.
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

// SpreadStandby picks an n-node standby pool balanced across racks: the
// last node of each rack in turn, round-robin, never a rack's last active
// node. The paper: "the active nodes and standby nodes are both
// distributed in different racks". The pool is smaller than n when every
// rack is down to one active node.
func SpreadStandby(topo *topology.Topology, n int) []DatanodeID {
	racks := make([][]topology.NodeID, topo.NumRacks())
	for r := range racks {
		racks[r] = topo.NodesInRack(r)
	}
	var pool []DatanodeID
	for grew := true; grew && len(pool) < n; {
		grew = false
		for r, nodes := range racks {
			if len(pool) == n || len(nodes) <= 1 {
				continue
			}
			pool = append(pool, DatanodeID(nodes[len(nodes)-1]))
			racks[r] = nodes[:len(nodes)-1]
			grew = true
		}
	}
	return pool
}

func (c *Config) applyDefaults() {
	c.Heartbeat.applyDefaults()
	c.SafeMode.applyDefaults()
	if c.NodeCapacity <= 0 {
		c.NodeCapacity = 250 * topology.GB
	}
	if c.MaxSessionsPerNode <= 0 {
		c.MaxSessionsPerNode = 64
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

// metricFields declares each Metrics field once: its /metrics counter
// (after "hdfs_"), whether the checkpoint carries it, and where it lives
// (an *int or a *float64). The durable fields come first, in checkpoint
// stream order. RegisterMetrics, Metrics.Add and the checkpoint's metric
// list all walk this table.
var metricFields = [...]struct {
	name    string
	durable bool
	field   func(*Metrics) any
}{
	{"reads_started_total", true, func(m *Metrics) any { return &m.ReadsStarted }},
	{"reads_completed_total", true, func(m *Metrics) any { return &m.ReadsCompleted }},
	{"reads_failed_total", true, func(m *Metrics) any { return &m.ReadsFailed }},
	{"block_reads_total", true, func(m *Metrics) any { return &m.BlockReads }},
	{"node_local_reads_total", true, func(m *Metrics) any { return &m.NodeLocalReads }},
	{"rack_local_reads_total", true, func(m *Metrics) any { return &m.RackLocalReads }},
	{"remote_reads_total", true, func(m *Metrics) any { return &m.RemoteReads }},
	{"replicas_added_total", true, func(m *Metrics) any { return &m.ReplicasAdded }},
	{"replicas_removed_total", true, func(m *Metrics) any { return &m.ReplicasRemoved }},
	{"files_encoded_total", true, func(m *Metrics) any { return &m.FilesEncoded }},
	{"blocks_rebuilt_total", true, func(m *Metrics) any { return &m.BlocksRebuilt }},
	{"stale_transitions_total", true, func(m *Metrics) any { return &m.StaleTransitions }},
	{"replicas_scrubbed_total", true, func(m *Metrics) any { return &m.ReplicasScrubbed }},
	{"corrupt_detected_total", true, func(m *Metrics) any { return &m.CorruptDetected }},
	{"checksum_failures_total", true, func(m *Metrics) any { return &m.ChecksumFailures }},
	{"bytes_read_total", true, func(m *Metrics) any { return &m.BytesRead }},
	{"replication_mb_total", true, func(m *Metrics) any { return &m.ReplicationMB }},
	{"corrupt_bytes_total", true, func(m *Metrics) any { return &m.CorruptBytes }},
	{"ranged_reads_total", false, func(m *Metrics) any { return &m.RangedReads }},
	{"partial_block_reads_total", false, func(m *Metrics) any { return &m.PartialBlockReads }},
	{"ranged_bytes_read_total", false, func(m *Metrics) any { return &m.RangedBytesRead }},
	{"safemode_entries_total", false, func(m *Metrics) any { return &m.SafeModeEntries }},
	{"safemode_exits_total", false, func(m *Metrics) any { return &m.SafeModeExits }},
	{"safemode_rejections_total", false, func(m *Metrics) any { return &m.SafeModeRejections }},
	{"fenced_writes_rejected_total", false, func(m *Metrics) any { return &m.FencedWritesRejected }},
	{"fenced_writes_applied_total", false, func(m *Metrics) any { return &m.FencedWritesApplied }},
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
	// assigned monotonically and never reused); a noBlock entry marks a
	// deleted block. liveBlocks counts the others.
	blocks     []blockRef
	replicas   [][]DatanodeID
	liveBlocks int
	datanodes  []*Datanode
	nextBlock  BlockID

	// underSet holds the blocks currently below their replication target,
	// maintained incrementally at every replica/target mutation so
	// UnderReplicated never rescans the block space.
	underSet map[BlockID]struct{}
	// copying counts each block's copies in flight (the datanodes'
	// inbound copies), sparse like underSet; Deficit subtracts it.
	copying map[BlockID]int

	// aboveDefault holds the live files whose replication exceeds the
	// default, in no order; aboveAt maps each member's intern slot to its
	// position there. Derived like underSet: rebuilt on restore and replay.
	aboveDefault []*INode
	aboveAt      map[int]int

	// loadIdx buckets placement-eligible datanodes by PlacementLoad; each
	// bucket is a bitset over node IDs, so candidate selection walks nodes
	// in exactly the (load, ID) order the old linear scan sorted into.
	// idxMin is a lazily-advanced lower bound on the first occupied bucket.
	loadIdx []NodeSet
	idxMin  int

	// createTargets is CreateFile's placement buffer, consumed before the
	// next block.
	createTargets []DatanodeID

	placement Policy
	audit     *auditlog.Log
	metrics   Metrics
	// clientIPs is each topology node's fabricated audit address (clientIP).
	clientIPs []string

	// journal, when attached, receives a typed write-ahead record for
	// every durable namenode mutation; replaying stands a failover twin
	// up from a checkpoint. replaying suppresses re-emission, and
	// setState's uptime billing and flow aborts, while the journal's own
	// entries are being applied. ckptJournalSeq is the journal position
	// the state reflects: the restored checkpoint's, advanced past each
	// replayed entry.
	journal        *auditlog.Journal
	replaying      bool
	ckptJournalSeq uint64

	// fedMoves is the pending cross-shard move table (see federation.go):
	// one record per open move whose source is this shard, maintained by
	// both the live marker path and journal replay. Nil when this cluster
	// has never sourced a move.
	fedMoves map[moveKey]*MoveRecord

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
	// freeReads holds block-read records whose read has ended, for the next
	// read to reuse (read.go); it never holds more than the peak number of
	// concurrent reads.
	freeReads   []*blockRead
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
		copying:     make(map[BlockID]int),
		aboveAt:     make(map[int]int),
		partitioned: make(map[int]bool),
		audit:       auditlog.NewLog(cfg.KeepAuditRecords),
		clientIPs:   make([]string, cfg.Topology.NumNodes()),
	}
	for n := range c.clientIPs {
		c.clientIPs[n] = fmt.Sprintf("10.%d.0.%d", cfg.Topology.Rack(topology.NodeID(n)), n)
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
// into a metrics registry, read at snapshot time.
func (c *Cluster) RegisterMetrics(r *metrics.Registry) {
	for _, f := range metricFields {
		p := f.field(&c.metrics)
		r.CounterFunc("hdfs_"+f.name, func() float64 {
			if i, ok := p.(*int); ok {
				return float64(*i)
			}
			return *p.(*float64)
		})
	}
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

// Datanode returns the datanode with the given ID, or nil if there is none.
func (c *Cluster) Datanode(id DatanodeID) *Datanode {
	if id < 0 || int(id) >= len(c.datanodes) {
		return nil
	}
	return c.datanodes[id]
}

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

// Block returns block id's metadata, derived from its file as of the call,
// and whether the block is live (false for unknown or deleted blocks).
func (c *Cluster) Block(id BlockID) (Block, bool) {
	if !c.live(id) {
		return Block{}, false
	}
	return c.view(id), true
}

// live reports whether id names a block in the block map.
func (c *Cluster) live(id BlockID) bool {
	return id >= 0 && int(id) < len(c.blocks) && c.blocks[id].file >= 0
}

// view derives live block id's metadata from its file.
func (c *Cluster) view(id BlockID) Block {
	r := c.blocks[id]
	f := c.fileByID[r.file]
	b := Block{ID: id, File: f.Path, Parity: r.pos < 0}
	b.Index, b.Size, b.Group = c.geometry(f, r.pos)
	return b
}

// size derives live block id's size, the one field most callers need.
func (c *Cluster) size(id BlockID) float64 {
	r := c.blocks[id]
	_, size, _ := c.geometry(c.fileByID[r.file], r.pos)
	return size
}

// geometry derives the index, size and stripe group of the block at
// position pos of f (see blockRef).
func (c *Cluster) geometry(f *INode, pos int32) (index int, size float64, group int) {
	if pos >= 0 {
		return int(pos), c.blockBytes(int(pos), blockCount(f.Size, BlockSize), f.Size), 0
	}
	j := int(^pos)
	return len(f.Blocks) + j, BlockSize, j / max(f.stripe.M, 1)
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

// owner returns the file block id belongs to, nil for a dropped block.
func (c *Cluster) owner(id BlockID) *INode {
	if !c.live(id) {
		return nil
	}
	return c.fileByID[c.blocks[id].file]
}

// registerFile interns f and installs it in the namespace.
func (c *Cluster) registerFile(f *INode) {
	f.id = int32(len(c.fileByID))
	c.fileByID = append(c.fileByID, f)
	c.files[f.Path] = f
	c.pathsCache = nil
	c.jlog(auditlog.Entry{Op: auditlog.OpFileAdd, Path: f.Path, File: f.ID(),
		Size: f.Size, Target: f.TargetRepl})
}

// addBlock mints the next block ID at position pos of f (see blockRef),
// enters it in the dense block map and appends it to f's data or parity
// list.
func (c *Cluster) addBlock(f *INode, pos int32) BlockID {
	id := c.nextBlock
	c.nextBlock++
	c.blocks = append(c.blocks, blockRef{f.id, pos})
	c.replicas = append(c.replicas, nil)
	c.liveBlocks++
	if pos < 0 {
		f.stripe.Parity = append(f.stripe.Parity, id)
	} else {
		f.Blocks = append(f.Blocks, id)
	}
	c.reassessBlock(id)
	if c.journal != nil {
		index, size, group := c.geometry(f, pos)
		c.jlog(auditlog.Entry{Op: auditlog.OpBlockAdd, Block: int64(id), File: f.ID(),
			Size: size, Index: index, Flag: pos < 0, Group: group})
	}
	return id
}

// dropBlock detaches every replica of a block, then removes the block.
// Replicas leave front-first from the live list, which shifts down under
// each detach: nothing is copied and the OpReplicaDrop entries keep list
// order.
func (c *Cluster) dropBlock(id BlockID) {
	if !c.live(id) {
		return
	}
	for i := 0; i < len(c.replicas[id]); {
		if !c.detachReplica(id, c.replicas[id][i]) {
			i++ // listed but not held: stepped over, as a copied walk did
		}
	}
	c.blocks[id] = noBlock
	c.replicas[id] = nil
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

// clientIP is a stable fabricated client address for audit records,
// "10.<rack>.0.<node>". Node IDs outside the topology (negative: no
// locality hint) map to the namenode's address.
func (c *Cluster) clientIP(n topology.NodeID) string {
	if n < 0 || int(n) >= len(c.clientIPs) {
		return "10.0.0.1"
	}
	return c.clientIPs[n]
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
	// "" is refused here and as a Rename's destination: checkpoint decode
	// refuses it, so it could not fail over.
	switch _, exists := c.files[path]; {
	case path == "":
		return nil, fmt.Errorf("hdfs: empty path")
	case exists:
		return nil, fmt.Errorf("hdfs: file %q exists", path)
	case size <= 0:
		return nil, fmt.Errorf("hdfs: file size must be positive")
	}
	if repl <= 0 {
		repl = DefaultReplication
	}
	f := &INode{
		Path:       path,
		Size:       size,
		TargetRepl: repl,
		CreatedAt:  c.clock.Now(),
	}
	c.registerFile(f)
	nBlocks := blockCount(size, BlockSize)
	for i := 0; i < nBlocks; i++ {
		id := c.addBlock(f, int32(i))
		c.createTargets = c.placement.ChooseTargets(c.createTargets[:0], c, c.view(id), repl, DatanodeID(writer), nil)
		if len(c.createTargets) == 0 {
			c.dropFile(f) // no orphan blocks left behind
			return nil, fmt.Errorf("hdfs: no targets for block %d of %q", id, path)
		}
		for _, t := range c.createTargets {
			c.attachReplica(id, t)
		}
	}
	c.audit.Append(auditlog.Record{
		Time: c.clock.Now(), Allowed: true, UGI: "hadoop",
		IP: c.clientIP(writer), Cmd: auditlog.CmdCreate, Src: path,
	})
	return f, nil
}

// blockCount returns how many blocks a file of the given size splits into.
func blockCount(size, blockSize float64) int {
	n := int(size / blockSize)
	if float64(n)*blockSize < size {
		n++
	}
	return n
}

// blockBytes returns the size of block i of n: full but the last, which
// carries the remainder. The conversion rounds the product on its own, so
// no platform may fuse the multiply and subtract into one rounding.
func (c *Cluster) blockBytes(i, n int, size float64) float64 {
	if i != n-1 {
		return BlockSize
	}
	return size - float64(float64(n-1)*BlockSize)
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
	c.dropFile(f)
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
	if dst == "" {
		return fmt.Errorf("hdfs: empty destination path")
	}
	if _, ok := c.files[dst]; ok {
		return fmt.Errorf("hdfs: destination %q exists", dst)
	}
	c.renameFile(f, dst)
	c.audit.Append(auditlog.Record{
		Time: c.clock.Now(), Allowed: true, UGI: "hadoop",
		IP: "10.0.0.1", Cmd: auditlog.CmdRename, Src: src, Dst: dst,
	})
	return nil
}

// dropFile drops f's blocks, then removes f from the namespace: the
// transition DeleteFile, a failed CreateFile's unwind and OpFileDrop share.
func (c *Cluster) dropFile(f *INode) {
	for _, ids := range [2][]BlockID{f.Blocks, f.Parity()} {
		for _, bid := range ids {
			c.dropBlock(bid)
		}
	}
	delete(c.files, f.Path)
	c.fileByID[f.id] = nil
	c.pathsCache = nil
	c.jlog(auditlog.Entry{Op: auditlog.OpFileDrop, File: f.ID(), Path: f.Path})
}

// renameFile moves f to dst, which must be free: the transition Rename and
// OpRename share. Its blocks name the file by slot, so none is touched.
func (c *Cluster) renameFile(f *INode, dst string) {
	src := f.Path
	delete(c.files, src)
	f.Path = dst
	c.files[dst] = f
	c.pathsCache = nil
	c.jlog(auditlog.Entry{Op: auditlog.OpRename, File: f.ID(), Path: src, Dst: dst})
}

// attachReplica registers a replica of block id on dn (metadata + space).
// A freshly landed copy is pristine, so any corruption flag from a
// previous incarnation of the replica is cleared.
func (c *Cluster) attachReplica(id BlockID, dn DatanodeID) {
	// A copy can land after its file was deleted: block IDs are never
	// reused, so a dropped entry is exact. The landed bytes belong to a
	// dead block — discard them, exactly as a real datanode invalidates an
	// unknown block on its next report. Attaching instead would leave the
	// node's block set naming a dropped block-map entry.
	if !c.live(id) {
		return
	}
	d := c.datanodes[dn]
	if d.blocks.Has(id) {
		return
	}
	d.blocks.Add(id)
	d.Used += c.size(id)
	delete(d.corrupt, id)
	delete(d.reported, id)
	if c.replicas[id] == nil { // first landing: size the list once
		// TargetRepl is the caller's: no block outgrows the datanode count.
		c.replicas[id] = make([]DatanodeID, 0, max(1, min(c.ReplTarget(id), len(c.datanodes))))
	}
	c.replicas[id] = append(c.replicas[id], dn)
	c.reassessBlock(id)
	c.reassessAboveDefault(id)
	c.reindexNode(d)
	c.jlog(auditlog.Entry{Op: auditlog.OpReplicaAdd, Block: int64(id), Node: int(dn)})
}

// detachReplica removes block id's replica from dn, reporting whether dn
// held it.
func (c *Cluster) detachReplica(id BlockID, dn DatanodeID) bool {
	d := c.datanodes[dn]
	if !d.blocks.Has(id) {
		return false
	}
	d.blocks.Remove(id)
	d.Used -= c.size(id)
	delete(d.corrupt, id)
	delete(d.reported, id)
	reps := c.replicas[id]
	for i, r := range reps {
		if r == dn {
			c.replicas[id] = append(reps[:i], reps[i+1:]...)
			break
		}
	}
	c.reassessBlock(id)
	c.reassessAboveDefault(id)
	c.reindexNode(d)
	c.jlog(auditlog.Entry{Op: auditlog.OpReplicaDrop, Block: int64(id), Node: int(dn)})
	return true
}
