// Package erms is an elastic replication management system for an HDFS
// model, reproducing Cheng et al., "ERMS: An Elastic Replication
// Management System for HDFS" (IEEE CLUSTER 2012 Workshops).
//
// ERMS watches the HDFS audit stream through a complex-event-processing
// engine, classifies every file as hot, cooled, normal or cold, and reacts
// elastically: hot data gains extra replicas on commissioned standby
// nodes, cooled data loses them again (standby-first, no rebalancing),
// and cold data is Reed–Solomon encoded (one replica plus four parities)
// to reclaim storage. Management tasks run through a Condor-style
// scheduler: urgent work immediately, space-reclaiming work when the
// cluster is idle, with a replayable user log and automatic rollback.
//
// Everything — the cluster, disks, network, schedulers — runs on a
// deterministic discrete-event simulation, so experiments are exactly
// reproducible and take milliseconds of wall time per simulated hour.
//
// # Quick start
//
//	sys := erms.NewSystem(erms.Options{})      // 18-node testbed, 8 standby
//	sys.CreateFile("/data/logs", 640*erms.MB)  // triplicated by default
//	for i := 0; i < 40; i++ {                  // make it hot
//		sys.Read(i%10, "/data/logs", nil)
//	}
//	sys.RunFor(10 * time.Minute)               // judge reacts, replicas grow
//	fmt.Println(sys.Replication("/data/logs")) // > 3
//
// The internal packages expose the full substrates (HDFS model, CEP
// engine, Condor scheduler, Reed–Solomon stripe geometry, SWIM-style
// workload synthesis); the aliases below surface the types needed to use
// them through this package.
package erms

import (
	"time"

	"erms/internal/auditlog"
	"erms/internal/core"
	"erms/internal/federation"
	"erms/internal/hdfs"
	"erms/internal/mapred"
	"erms/internal/metrics"
	"erms/internal/sim"
	"erms/internal/topology"
	"erms/internal/trace"
	"erms/internal/workload"
)

// Re-exported size units.
const (
	// MB is one megabyte in bytes.
	MB = float64(topology.MB)
	// GB is one gigabyte in bytes.
	GB = float64(topology.GB)
)

// Aliases surfacing the main configuration and result types so callers of
// this package rarely need the internal import paths.
type (
	// Thresholds are the Data Judge tunables (τ_M, M_M, M_m, ε, τ_d, τ_m,
	// τ_DN, cold age, erasure geometry).
	Thresholds = core.Thresholds
	// Decision is one judge output (class, action, target replication).
	Decision = core.Decision
	// ReadResult describes one completed file read.
	ReadResult = hdfs.ReadResult
	// Job is a MapReduce job, as ReplayJobs runs it.
	Job = mapred.Job
	// Trace is a synthetic SWIM-style workload.
	Trace = workload.Trace
	// WorkloadConfig tunes trace synthesis.
	WorkloadConfig = workload.Config
	// EnergyReport summarizes standby-pool uptime.
	EnergyReport = core.EnergyReport
	// HDFSMetrics aggregates storage-level counters.
	HDFSMetrics = hdfs.Metrics
	// SafeModeConfig tunes the namenode safe-mode guard (see
	// Options.SafeMode).
	SafeModeConfig = hdfs.SafeModeConfig
	// HeartbeatConfig tunes the heartbeat failure detector (see
	// Options.Heartbeat).
	HeartbeatConfig = hdfs.HeartbeatConfig
)

// WallClock is the wall-time seam for service mode: Now/After/Sleep,
// with a real implementation backed by package time and a simulated one
// backed by the discrete-event engine (see Options.Clock and sim.WallClock).
type WallClock = sim.WallClock

// RealClock returns the production wall clock backed by package time.
// A System built with Options{Clock: RealClock()} runs in service mode on
// real time — the deployment mode of cmd/ermsd.
func RealClock() WallClock { return sim.Real() }

// DefaultThresholds returns the paper-calibrated judge thresholds.
func DefaultThresholds() Thresholds { return core.DefaultThresholds() }

// SynthesizeWorkload builds a deterministic heavy-tailed trace.
func SynthesizeWorkload(cfg WorkloadConfig) *Trace { return workload.Synthesize(cfg) }

// Options sizes a System. The zero value reproduces the paper's testbed:
// 18 datanodes in 3 racks and (when ERMS is enabled) the last 8 nodes as
// the standby pool. The block size (hdfs.BlockSize, 64 MB), the default
// replication (hdfs.DefaultReplication, 3), the map slots per node (2) and
// the repair pipeline's stream caps (core.RepairConfig's defaults) are
// fixed, not options.
type Options struct {
	// Racks in the cluster (default 3).
	Racks int
	// Nodes is the total datanode count (default 18).
	Nodes int
	// StandbyNodes is the size of the ERMS standby pool taken from the end
	// of the node range (default 8; pass -1 to run ERMS with every node
	// active). Ignored when DisableERMS is set.
	StandbyNodes int
	// Thresholds for the Data Judge (zero fields take defaults).
	Thresholds Thresholds
	// Scheduler selects the MapReduce scheduler: "fifo" (default) or
	// "fair".
	Scheduler string
	// DisableERMS runs a vanilla triplicating HDFS with every node active
	// (the paper's baseline).
	DisableERMS bool
	// JudgePeriod overrides how often the Data Judge runs (default: the
	// thresholds window).
	JudgePeriod time.Duration
	// EnableTrace records spans for every control-loop hop (audit burst →
	// judge verdict → Condor job → per-replica transfer) for export with
	// Tracer().WriteChromeTrace. Off by default so the hot path stays
	// allocation-free.
	EnableTrace bool
	// EnableJournal attaches a write-ahead journal recording every durable
	// namenode mutation; Checkpoint + Journal().Tail form the failover
	// story (see NewStandby). Off by default: the journal grows with every
	// mutation and most experiments never fail the namenode over.
	EnableJournal bool
	// Heartbeat configures the heartbeat failure detector (off by default:
	// Kill declares nodes dead instantly, the legacy behaviour).
	Heartbeat HeartbeatConfig
	// SafeMode configures the namenode safe-mode guard: when Enabled, the
	// namenode rejects mutations and defers re-replication while block
	// availability or the live-node fraction sits below thresholds (and on
	// checkpoint restore), exiting only after a stable dwell.
	SafeMode SafeModeConfig
	// Clock, when non-nil, puts the System in service mode: virtual time
	// is paced against this wall clock instead of being driven by RunFor.
	// Pass RealClock() to track real time (what cmd/ermsd does) or a
	// sim.SimClock to run the identical service-mode code path
	// deterministically under test. The engine stays the single scheduling
	// authority either way — the clock only decides how fast CatchUp lets
	// it advance — so a sim-clocked service is byte-identical to a plain
	// simulation (see TestClockSeamEquivalence). Nil (the default) is pure
	// simulation.
	Clock WallClock
	// Shards is the number of namenode shards the namespace is federated
	// across (see federation.go): a pinned hash-of-path router assigns
	// every file to the shard owning its block map, under-replication set,
	// journal epoch, and judge instance, while datanodes stay global (every
	// shard sees the full topology and tracks its own block pool per node,
	// the HDFS federation model). Every deployment is a federation of at
	// least one shard: 0 (the default) and 1 both mean one namenode — the
	// paper's deployment, where the router never hashes; >= 2 partitions
	// for real, with cross-shard renames running the journaled two-phase
	// move protocol.
	Shards int
}

// slotsPerNode is the map-slot count per node, the Hadoop-era norm for
// dual-core nodes.
const slotsPerNode = 2

// normalized fills the defaults every shard is built from.
func (opts Options) normalized() Options {
	if opts.Racks <= 0 {
		opts.Racks = 3
	}
	if opts.Nodes <= 0 {
		opts.Nodes = 18
	}
	if opts.StandbyNodes < 0 || opts.DisableERMS {
		opts.StandbyNodes = 0
	} else if opts.StandbyNodes == 0 {
		opts.StandbyNodes = 8
	}
	if opts.StandbyNodes >= opts.Nodes {
		opts.StandbyNodes = opts.Nodes / 2
	}
	opts.Shards = max(opts.Shards, 1)
	return opts
}

// System is a simulated deployment: one engine (one virtual clock) under
// a federation of one or more namenode shards. Each Shard owns its slice
// of the namespace — HDFS block pool, MapReduce runtime, metrics and
// (unless disabled) ERMS manager — while datanodes are global. The API
// routes by path and aggregates across shards; HDFS, Manager, MapReduce,
// Tracer, Registry and Journal answer for shard 0, which on the default
// one-shard deployment is the whole system.
type System struct {
	engine *sim.Engine

	// Service-mode pacing state (see Options.Clock): nil wall means pure
	// simulation, where only RunFor advances time.
	wall      WallClock
	wallStart time.Time

	opts   Options // normalized: what every shard, and every rebuild, is built from
	router federation.Router
	shards []*Shard    // len >= 1
	snaps  []shardSnap // rolling per-shard snapshots for FailoverShard
}

// Shard is one namenode of a System: the owner of its files' block map,
// under-replication set, journal and judge. Reach one with System.Shard.
type Shard struct {
	cluster  *hdfs.Cluster
	mr       *mapred.Cluster
	manager  *core.Manager
	tracer   *trace.Tracer
	registry *metrics.Registry
}

// HDFS returns the shard's storage cluster.
func (sh *Shard) HDFS() *hdfs.Cluster { return sh.cluster }

// Manager returns the shard's ERMS manager, or nil when DisableERMS was set.
func (sh *Shard) Manager() *core.Manager { return sh.manager }

// Registry returns the shard's metrics registry.
func (sh *Shard) Registry() *metrics.Registry { return sh.registry }

// Journal returns the shard's write-ahead journal, or nil without
// EnableJournal.
func (sh *Shard) Journal() *Journal { return sh.cluster.Journal() }

// NewSystem builds a deployment from opts.
func NewSystem(opts Options) *System {
	s := newShardless(opts)
	for range s.opts.Shards {
		sh := s.newShard()
		if s.opts.EnableJournal {
			sh.cluster.SetJournal(auditlog.NewJournal())
		}
		sh.attachManager(s.opts)
		s.shards = append(s.shards, sh)
	}
	return s
}

// newShardless builds everything but the shards — engine, pacing, router —
// so NewStandby can promote its one shard from a checkpoint instead.
func newShardless(opts Options) *System {
	opts = opts.normalized()
	s := &System{
		engine: sim.NewEngine(),
		opts:   opts,
		router: federation.New(opts.Shards),
		snaps:  make([]shardSnap, opts.Shards),
	}
	if opts.Clock != nil {
		s.wall = opts.Clock
		s.wallStart = s.wall.Now()
	}
	return s
}

// newShard builds one namenode on the shared engine, without journal or
// manager: NewSystem attaches fresh ones, promote restores state first.
func (s *System) newShard() *Shard {
	opts := s.opts
	topo := topology.New(topology.Config{Racks: opts.Racks, NodeCount: opts.Nodes})
	var standby []hdfs.DatanodeID
	for id := opts.Nodes - opts.StandbyNodes; id < opts.Nodes; id++ {
		standby = append(standby, hdfs.DatanodeID(id))
	}
	cluster := hdfs.New(s.engine, hdfs.Config{
		Topology:     topo,
		StandbyNodes: standby,
		Heartbeat:    opts.Heartbeat,
		SafeMode:     opts.SafeMode,
	})
	var sched mapred.Scheduler = mapred.NewFIFO()
	if opts.Scheduler == "fair" {
		sched = mapred.NewFair()
	}
	registry := metrics.NewRegistry()
	cluster.RegisterMetrics(registry)
	sh := &Shard{
		cluster:  cluster,
		mr:       mapred.New(cluster, slotsPerNode, sched),
		registry: registry,
	}
	if opts.EnableTrace {
		// The tracer must be attached before core.New: the manager hands
		// cluster.Tracer() to the Condor scheduler and the judge's CEP engine.
		sh.tracer = trace.New(s.engine.Now)
		cluster.SetTracer(sh.tracer)
	}
	return sh
}

func (sh *Shard) attachManager(opts Options) {
	if opts.DisableERMS {
		return
	}
	sh.manager = core.New(sh.cluster, core.Config{
		Thresholds:  opts.Thresholds,
		JudgePeriod: opts.JudgePeriod,
		Registry:    sh.registry,
	})
}

// Engine returns the simulation engine (for scheduling custom events).
func (s *System) Engine() *sim.Engine { return s.engine }

// HDFS returns shard 0's storage cluster; use Shard(i).HDFS() for another
// shard's.
func (s *System) HDFS() *hdfs.Cluster { return s.shards[0].cluster }

// MapReduce returns the job runtime, which is bound to shard 0.
func (s *System) MapReduce() *mapred.Cluster { return s.shards[0].mr }

// Manager returns shard 0's ERMS manager, or nil when DisableERMS was
// set; each shard runs its own judge (Shard(i).Manager()).
func (s *System) Manager() *core.Manager { return s.shards[0].manager }

// Tracer returns shard 0's span recorder, or nil unless EnableTrace was
// set. A nil *trace.Tracer is safe to call (every method no-ops).
func (s *System) Tracer() *trace.Tracer { return s.shards[0].tracer }

// Registry returns shard 0's metrics registry, shared by every subsystem
// of that shard.
func (s *System) Registry() *metrics.Registry { return s.shards[0].registry }

// Now returns the current virtual time.
func (s *System) Now() time.Duration { return s.engine.Now() }

// RunFor advances the simulation by d of virtual time.
func (s *System) RunFor(d time.Duration) { s.engine.RunFor(d) }

// RunUntil advances the simulation to absolute virtual time t.
func (s *System) RunUntil(t time.Duration) { s.engine.RunUntil(t) }

// Clock returns the wall clock the system is paced against in service
// mode, or nil in pure-simulation mode (see Options.Clock).
func (s *System) Clock() WallClock { return s.wall }

// CatchUp advances virtual time to the wall-clock time elapsed since the
// system was built, firing every event due in between, and returns the
// new virtual now. In pure-simulation mode (Options.Clock nil) it is a
// read-only no-op. CatchUp is the whole of service-mode pacing: the HTTP
// control plane calls it before every request and from a background pump
// (see internal/server), so heartbeats, judge windows, and repairs fire
// at their wall-clock instants. Like every engine entry point it is not
// goroutine-safe — service mode serializes callers externally.
func (s *System) CatchUp() time.Duration {
	if s.wall == nil {
		return s.engine.Now()
	}
	if target := s.wall.Now().Sub(s.wallStart); target > s.engine.Now() {
		s.engine.RunUntil(target)
	}
	return s.engine.Now()
}

// CreateFile adds a file of the given size (bytes) at the default
// replication, placing the first replica on node 0's rack neighborhood.
func (s *System) CreateFile(path string, size float64) error {
	_, err := s.shardFor(path).cluster.CreateFile(path, size, 0, 0)
	return err
}

// CreateFileOn adds a file with an explicit replication factor and writer
// node.
func (s *System) CreateFileOn(path string, size float64, repl, writer int) error {
	_, err := s.shardFor(path).cluster.CreateFile(path, size, repl, topology.NodeID(writer))
	return err
}

// Read streams the file to client node (asynchronously); done may be nil.
func (s *System) Read(client int, path string, done func(*ReadResult)) {
	s.shardFor(path).cluster.ReadFile(topology.NodeID(client), path, done)
}

// ReadRange streams bytes [offset, offset+length) of the file to the
// client node (asynchronously); length 0 means read to end-of-file, and
// done may be nil. Partial reads count toward block heat like whole ones
// and drive the judge's ε/M_M axes (DESIGN.md §14).
func (s *System) ReadRange(client int, path string, offset, length float64, done func(*ReadResult)) {
	s.shardFor(path).cluster.ReadRange(topology.NodeID(client), path, offset, length, done)
}

// Rename moves a file to a new path (metadata-only); ERMS's judge state
// follows the file. When the source and destination hash to different
// shards, the rename runs the journaled two-phase cross-shard move
// protocol (see StartMove) synchronously; judge heat does not follow the
// file across shards — it re-warms at the destination, like a failover.
func (s *System) Rename(src, dst string) error {
	si, di := s.router.Shard(src), s.router.Shard(dst)
	if si == di {
		return s.shards[si].cluster.Rename(src, dst)
	}
	mv, err := s.StartMove(src, dst)
	if err != nil {
		return err
	}
	return mv.Run()
}

// Delete removes a file and frees its replicas.
func (s *System) Delete(path string) error { return s.shardFor(path).cluster.DeleteFile(path) }

// Replication returns a file's current replica count.
func (s *System) Replication(path string) int { return s.shardFor(path).cluster.ReplicationOf(path) }

// StorageUsed returns total bytes stored across datanodes.
func (s *System) StorageUsed() float64 {
	var total float64
	for _, sh := range s.shards {
		total += sh.cluster.TotalUsed()
	}
	return total
}

// Metrics returns storage-level counters, summed across shards.
func (s *System) Metrics() HDFSMetrics {
	var total HDFSMetrics
	for _, sh := range s.shards {
		total = total.Add(sh.cluster.Metrics())
	}
	return total
}

// Decisions returns the ERMS decision history (nil without ERMS),
// concatenated in shard order.
func (s *System) Decisions() []Decision {
	var all []Decision
	for _, sh := range s.shards {
		if sh.manager != nil {
			all = append(all, sh.manager.History()...)
		}
	}
	return all
}

// Energy returns the standby-pool energy report (zero without ERMS),
// summed across shards: each shard manages its block pool's standby
// commissioning independently on the shared hardware, so pooled node
// counts and uptimes add.
func (s *System) Energy() EnergyReport {
	var total EnergyReport
	for _, sh := range s.shards {
		if sh.manager == nil {
			continue
		}
		r := sh.manager.Energy()
		total.PoolNodes += r.PoolNodes
		total.PoolActiveTime += r.PoolActiveTime
		total.AllActiveTime += r.AllActiveTime
		total.SavedNodeHours += r.SavedNodeHours
	}
	return total
}

// Preload creates a trace's files at their creation times, each in its
// owner shard; the writer node comes from the file's index in the trace.
func (s *System) Preload(t *Trace) {
	for i, f := range t.Files {
		workload.ScheduleCreate(s.engine, s.shardFor(f.Path).cluster, 0, i, f)
	}
}

// ReplayJobs submits a trace's jobs to MapReduce at their trace times.
// MapReduce is bound to shard 0: jobs over files owned by other shards
// are skipped (missing input), matching the replay helper's
// hand-edited-trace tolerance. Use ReplayReads for read workloads that
// span shards.
func (s *System) ReplayJobs(t *Trace, onDone func(*Job)) {
	workload.ReplayMapReduce(s.engine, s.shards[0].mr, t, onDone)
}

// ReplayReads replays a trace as direct client reads — ranged where the
// job carries a Length, whole-file otherwise — each routed to the file's
// owner shard.
func (s *System) ReplayReads(t *Trace, onDone func(*ReadResult)) {
	for _, j := range t.Jobs {
		workload.ScheduleRead(s.engine, s.shardFor(j.File).cluster, 0, j, onDone)
	}
}

// Stop halts ERMS background activity (every shard's judge ticker and
// negotiator) so the event queue can drain.
func (s *System) Stop() {
	for _, sh := range s.shards {
		if sh.manager != nil {
			sh.manager.Stop()
		}
	}
}
