package core

import (
	"fmt"
	"time"

	"erms/internal/condor"
	"erms/internal/hdfs"
	"erms/internal/metrics"
	"erms/internal/sim"
	"erms/internal/topology"
)

// Config assembles an ERMS deployment over an existing HDFS cluster.
type Config struct {
	Thresholds Thresholds
	// StandbyPool lists the datanodes ERMS manages as its standby set. If
	// empty, the cluster's currently-standby nodes are adopted.
	StandbyPool []hdfs.DatanodeID
	// JudgePeriod is how often the Data Judge evaluates; defaults to the
	// thresholds' window.
	JudgePeriod time.Duration
	// NegotiationPeriod for the Condor scheduler; default 5s.
	NegotiationPeriod time.Duration
	// DisableAutoCommission keeps standby nodes down even when hot data
	// needs homes (used by ablation experiments).
	DisableAutoCommission bool
	// RepairRetry governs re-execution of failed or hung repair jobs. The
	// zero value gets production-ish defaults (6 attempts, 15s backoff
	// doubling to 4m, 15m hang timeout); set MaxAttempts to 1 explicitly
	// for no retry.
	RepairRetry condor.RetryPolicy
	// RepairRescanDelay is how long after a repair finally fails before
	// the damage sweep re-arms (the cluster may have healed — a restarted
	// node, a lifted partition — making the retry worthwhile). Default 30s.
	RepairRescanDelay time.Duration
	// Repair throttles the recovery pipeline: cluster-wide and per-node
	// stream caps. See RepairConfig.
	Repair RepairConfig
	// Scrub, when Period > 0, starts the cluster's background corruption
	// scrubber alongside the manager.
	Scrub hdfs.ScrubConfig
	// Registry receives the manager's counters (and the judge's and the
	// scheduler's). Nil makes the manager create a private registry, so
	// direct construction in tests keeps working unchanged.
	Registry *metrics.Registry
}

// Stats counts manager activity.
type Stats struct {
	Decisions   int
	Increases   int
	Decreases   int
	Encodes     int
	Decodes     int
	Commissions int
	Shutdowns   int
	Repairs     int
	FailedJobs  int
	// RepairsRetried counts repair attempts beyond each job's first.
	RepairsRetried int
	// RepairsDeferred counts repair candidates skipped because the
	// namenode was in safe mode when the damage sweep ran; RepairsThrottled
	// counts candidates held back by the cluster-wide stream cap. Both are
	// re-examined by later sweeps (and may be re-counted then).
	RepairsDeferred  int
	RepairsThrottled int
	// CorruptFound / CorruptFixed count corrupt replicas detected by the
	// cluster (scrubber, read checksums, rejoin reconciliation) and the
	// ones whose blocks a repair job subsequently restored.
	CorruptFound int
	CorruptFixed int
	// StaleNodes is the number of datanodes currently past StaleTimeout.
	StaleNodes int
	// TimeToRepair* are quantiles, in seconds of virtual time, of
	// damage-detected → block-healthy intervals.
	TimeToRepairP50 float64
	TimeToRepairP99 float64
}

// Manager is ERMS: it owns the judge, the Condor scheduler, the placement
// policy, and the standby pool.
type Manager struct {
	cluster *hdfs.Cluster
	judge   *Judge
	sched   *condor.Scheduler
	cfg     Config

	pool      map[hdfs.DatanodeID]bool
	inFlight  map[string]bool // path -> management job outstanding
	repairing map[hdfs.BlockID]bool
	// repairStart records when damage to a block was first scheduled for
	// repair, for time-to-repair accounting across retries.
	repairStart map[hdfs.BlockID]time.Duration
	// corruptPending marks blocks whose damage came from a detected
	// corrupt replica, so their eventual repair counts as CorruptFixed.
	corruptPending map[hdfs.BlockID]bool
	rescanArmed    bool
	scrubStop      func()
	history        []Decision
	ticker         interface{ Stop() }

	// Repair-throttling state: in-flight repair copies per target node,
	// their cluster-wide total, and the never-should-fire per-node cap
	// tripwire the invariant oracle reads; capped is cappedTargets' reused
	// exclusion set.
	nodeStreams   map[hdfs.DatanodeID]int
	streams       int
	capViolations int
	capped        hdfs.NodeSet

	// Activity counters live in the metrics registry; Stats() assembles
	// the legacy snapshot struct from them.
	reg *metrics.Registry
	ctr managerCounters
	ttr *metrics.Histogram
}

// managerCounters holds the registry-backed counters that replaced the
// old ad-hoc Stats fields.
type managerCounters struct {
	decisions, increases, decreases, encodes, decodes *metrics.Counter
	commissions, shutdowns, repairs, failedJobs       *metrics.Counter
	repairsRetried, corruptFound, corruptFixed        *metrics.Counter
	repairsDeferred, repairsThrottled                 *metrics.Counter
}

func newManagerCounters(r *metrics.Registry) managerCounters {
	return managerCounters{
		decisions:      r.Counter("erms_decisions_total"),
		increases:      r.Counter("erms_increases_total"),
		decreases:      r.Counter("erms_decreases_total"),
		encodes:        r.Counter("erms_encodes_total"),
		decodes:        r.Counter("erms_decodes_total"),
		commissions:    r.Counter("erms_commissions_total"),
		shutdowns:      r.Counter("erms_shutdowns_total"),
		repairs:        r.Counter("erms_repairs_total"),
		failedJobs:     r.Counter("erms_failed_jobs_total"),
		repairsRetried: r.Counter("erms_repairs_retried_total"),
		corruptFound:   r.Counter("erms_corrupt_found_total"),
		corruptFixed:   r.Counter("erms_corrupt_fixed_total"),

		repairsDeferred:  r.Counter("erms_repairs_deferred_total"),
		repairsThrottled: r.Counter("erms_repairs_throttled_total"),
	}
}

// New attaches ERMS to a cluster. It installs the Algorithm 1 placement
// policy, starts the Condor negotiator and the judging ticker, and
// advertises every datanode as a Condor machine.
func New(cluster *hdfs.Cluster, cfg Config) *Manager {
	cfg.Thresholds.applyDefaults()
	if cfg.JudgePeriod <= 0 {
		cfg.JudgePeriod = cfg.Thresholds.Window
	}
	if cfg.RepairRetry == (condor.RetryPolicy{}) {
		cfg.RepairRetry = condor.RetryPolicy{
			MaxAttempts: 6,
			Backoff:     15 * time.Second,
			MaxBackoff:  4 * time.Minute,
			Timeout:     15 * time.Minute,
		}
	}
	if cfg.RepairRescanDelay <= 0 {
		cfg.RepairRescanDelay = 30 * time.Second
	}
	cfg.Repair.applyDefaults(len(cluster.Datanodes()))
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	m := &Manager{
		cluster:        cluster,
		cfg:            cfg,
		pool:           map[hdfs.DatanodeID]bool{},
		inFlight:       map[string]bool{},
		repairing:      map[hdfs.BlockID]bool{},
		repairStart:    map[hdfs.BlockID]time.Duration{},
		corruptPending: map[hdfs.BlockID]bool{},
		nodeStreams:    map[hdfs.DatanodeID]int{},
		reg:            cfg.Registry,
	}
	m.ctr = newManagerCounters(m.reg)
	m.ttr = m.reg.Histogram("erms_time_to_repair_seconds")
	m.reg.GaugeFunc("erms_stale_nodes", func() float64 { return float64(len(cluster.StaleNodes())) })
	m.reg.GaugeFunc("erms_repair_jobs_active", func() float64 { return float64(len(m.repairing)) })
	m.reg.GaugeFunc("erms_repair_streams", func() float64 { return float64(m.streams) })
	if len(cfg.StandbyPool) > 0 {
		for _, id := range cfg.StandbyPool {
			m.pool[id] = true
		}
	} else {
		for _, id := range cluster.Standby() {
			m.pool[id] = true
		}
	}
	m.judge = NewJudge(cluster, cfg.Thresholds)
	m.judge.CEP().RegisterMetrics(m.reg)
	m.reg.CounterFunc("erms_judge_files_visited_total", func() float64 { return float64(m.judge.visited) })
	cluster.SetPlacementPolicy(NewPlacement(m.pool))

	m.sched = condor.New(cluster.Clock(), condor.Config{
		NegotiationPeriod: cfg.NegotiationPeriod,
		// "run the decreasing replication tasks and erasure encoding tasks
		// when the HDFS cluster is idle."
		IdleProbe: func() bool { return cluster.ActiveReads() == 0 },
	})
	m.sched.SetTracer(cluster.Tracer())
	m.sched.RegisterMetrics(m.reg)
	m.refreshAds()

	m.ticker = sim.NewTicker(cluster.Clock(), cfg.JudgePeriod,
		func(time.Duration) { m.RunJudgeOnce() })

	// Datanode failures trigger an immediate repair pass: lost blocks of
	// encoded files are rebuilt from their stripes and under-replicated
	// plain blocks are re-replicated — ERMS routes the recovery work
	// through Condor so it is logged and replayable like everything else.
	cluster.OnDatanodeDown(func(hdfs.DatanodeID) { m.scheduleRepairs() })
	// A node coming (back) up changes both matchmaking and repair
	// feasibility: refresh its ad and re-sweep for blocks whose earlier
	// repairs found no target or source.
	cluster.OnDatanodeUp(func(hdfs.DatanodeID) {
		m.refreshAds()
		m.scheduleRepairs()
	})
	// Detected corruption quarantines a replica; route the re-replication
	// through the same Condor repair path and tag it for CorruptFixed.
	cluster.OnCorruptReplica(func(bid hdfs.BlockID, _ hdfs.DatanodeID) {
		m.ctr.corruptFound.Inc()
		m.corruptPending[bid] = true
		m.scheduleRepairs()
	})
	// Safe mode defers the damage sweep entirely; leaving it releases the
	// backlog in one prioritized pass.
	cluster.OnSafeMode(func(entered bool) {
		if !entered {
			m.scheduleRepairs()
		}
	})
	if cfg.Scrub.Period > 0 {
		m.scrubStop = cluster.StartScrubber(cfg.Scrub)
	}
	return m
}

// armRepairRescan schedules a single delayed damage sweep (coalescing
// multiple failures), so finally-failed repairs are re-attempted once the
// cluster has had a chance to heal.
func (m *Manager) armRepairRescan() {
	if m.rescanArmed {
		return
	}
	m.rescanArmed = true
	m.cluster.Clock().Schedule(m.cfg.RepairRescanDelay, func() {
		m.rescanArmed = false
		m.scheduleRepairs()
	})
}

// machineAd is the Condor machine ad describing a datanode: the mechanism
// the paper uses "to detect when datanodes are commissioned or
// decommissioned in the cluster".
func machineAd(d *hdfs.Datanode) condor.MachineAd {
	return condor.MachineAd{State: d.State.String(), FreeGB: d.Free() / topology.GB}
}

// refreshAds re-advertises every datanode's ad in place (registering each
// node the first time). It runs after every job, commission and node-up;
// a typed ad costs nothing to build, so it does not look for what changed.
func (m *Manager) refreshAds() {
	for _, d := range m.cluster.Datanodes() {
		m.sched.Advertise(d.Name, machineAd(d), 2)
	}
}

// Judge exposes the data judge.
func (m *Manager) Judge() *Judge { return m.judge }

// Scheduler exposes the Condor scheduler (its user log records every
// management task for replay).
func (m *Manager) Scheduler() *condor.Scheduler { return m.sched }

// Registry returns the metrics registry the manager's counters live in —
// the one passed via Config, or the private one created in its absence.
func (m *Manager) Registry() *metrics.Registry { return m.reg }

// Stats returns activity counters, with the derived fields (stale-node
// count, time-to-repair quantiles) computed as of now. The counts are
// assembled from the registry-backed counters that replaced the old
// struct fields.
func (m *Manager) Stats() Stats {
	return Stats{
		Decisions:        m.ctr.decisions.Int(),
		Increases:        m.ctr.increases.Int(),
		Decreases:        m.ctr.decreases.Int(),
		Encodes:          m.ctr.encodes.Int(),
		Decodes:          m.ctr.decodes.Int(),
		Commissions:      m.ctr.commissions.Int(),
		Shutdowns:        m.ctr.shutdowns.Int(),
		Repairs:          m.ctr.repairs.Int(),
		FailedJobs:       m.ctr.failedJobs.Int(),
		RepairsRetried:   m.ctr.repairsRetried.Int(),
		RepairsDeferred:  m.ctr.repairsDeferred.Int(),
		RepairsThrottled: m.ctr.repairsThrottled.Int(),
		CorruptFound:     m.ctr.corruptFound.Int(),
		CorruptFixed:     m.ctr.corruptFixed.Int(),
		StaleNodes:       len(m.cluster.StaleNodes()),
		TimeToRepairP50:  m.ttr.Quantile(0.50),
		TimeToRepairP99:  m.ttr.Quantile(0.99),
	}
}

// History returns every decision acted upon.
func (m *Manager) History() []Decision { return m.history }

// InStandbyPool reports pool membership.
func (m *Manager) InStandbyPool(id hdfs.DatanodeID) bool { return m.pool[id] }

// Stop halts the judging ticker, the Condor negotiator, and the
// corruption scrubber (when one was started).
func (m *Manager) Stop() {
	m.ticker.Stop()
	m.sched.Stop()
	if m.scrubStop != nil {
		m.scrubStop()
	}
}

// RunJudgeOnce evaluates the judge and schedules jobs for its decisions.
// It is called by the ticker but exposed for tests and tools. With
// tracing enabled the whole pass — CEP evaluation, decisions, job
// submissions, repair sweep — is one "judge.pass" span.
func (m *Manager) RunJudgeOnce() {
	tr := m.cluster.Tracer()
	sp := tr.Begin("judge.pass", tr.Current())
	prev := tr.Push(sp)
	decisions := m.judge.Evaluate()
	tr.SetAttrInt(sp, "decisions", int64(len(decisions)))
	for _, d := range decisions {
		if m.inFlight[d.Path] {
			continue
		}
		m.act(d)
	}
	// Each pass also sweeps for damage that arrived without a failure
	// notification (e.g. repairs that themselves failed).
	m.scheduleRepairs()
	tr.Pop(prev)
	tr.End(sp)
}

// replicateRequirements and replicateRank are the job ad of every
// replication increase: run on an active datanode, the one with the most
// free space first.
func replicateRequirements(t *condor.MachineAd) bool { return t.State == "active" }

func replicateRank(t *condor.MachineAd) float64 { return t.FreeGB }

// act converts one decision into a Condor job.
func (m *Manager) act(d Decision) {
	m.history = append(m.history, d)
	m.ctr.decisions.Inc()
	path := d.Path
	var job *condor.Job
	switch d.Action {
	case ActionIncrease:
		m.ctr.increases.Inc()
		need := d.TargetRepl - m.cluster.ReplicationOf(path)
		if !m.cfg.DisableAutoCommission {
			m.commissionFor(need)
		}
		job = &condor.Job{
			Name:         fmt.Sprintf("replicate:%s:r%d", path, d.TargetRepl),
			Class:        condor.ClassImmediate,
			Requirements: replicateRequirements,
			Rank:         replicateRank,
			Run: func(_ *condor.Machine, done func(error)) {
				m.cluster.SetReplication(path, d.TargetRepl, hdfs.WholeAtOnce, done)
			},
			Rollback: func() {
				def := m.cluster.Config().DefaultReplication
				if m.cluster.ReplicationOf(path) > def {
					m.cluster.SetReplication(path, def, hdfs.WholeAtOnce, nil)
				}
			},
		}
	case ActionDecrease:
		m.ctr.decreases.Inc()
		job = &condor.Job{
			Name:  fmt.Sprintf("shrink:%s:r%d", path, d.TargetRepl),
			Class: condor.ClassIdle,
			Run: func(_ *condor.Machine, done func(error)) {
				m.cluster.SetReplication(path, d.TargetRepl, hdfs.WholeAtOnce, done)
			},
		}
	case ActionEncode:
		m.ctr.encodes.Inc()
		k := m.cfg.Thresholds.EncodeK
		if f := m.cluster.File(path); f != nil && len(f.Blocks) < k {
			k = len(f.Blocks)
		}
		mParity := m.cfg.Thresholds.EncodeM
		job = &condor.Job{
			Name:  fmt.Sprintf("encode:%s:rs(%d,%d)", path, k, mParity),
			Class: condor.ClassIdle,
			Run: func(_ *condor.Machine, done func(error)) {
				m.cluster.EncodeFile(path, k, mParity, done)
			},
			// A failed or hung encode may leave partial parity behind;
			// rolling back drops it and restores plain replication.
			Rollback: func() { _ = m.cluster.CancelEncoding(path) },
		}
	case ActionDecode:
		m.ctr.decodes.Inc()
		job = &condor.Job{
			Name:  fmt.Sprintf("decode:%s:r%d", path, d.TargetRepl),
			Class: condor.ClassImmediate,
			Run: func(_ *condor.Machine, done func(error)) {
				m.cluster.DecodeFile(path, d.TargetRepl, done)
			},
		}
	}
	m.inFlight[path] = true
	// Management jobs get a modest retry budget (transient failures —
	// mid-transfer node deaths, momentary target shortages — heal on their
	// own); terminal bookkeeping rides on Notify so inFlight is held
	// across retry backoffs and released even on watchdog timeouts.
	job.Retry = condor.RetryPolicy{
		MaxAttempts: 3,
		Backoff:     10 * time.Second,
		MaxBackoff:  time.Minute,
	}
	job.Notify = func(j *condor.Job) {
		delete(m.inFlight, path)
		if j.State != condor.StateCompleted {
			m.ctr.failedJobs.Inc()
		}
		m.afterJob(d)
	}
	// The decision instant links the judge pass to the Condor job: the
	// job span submitted under it parents there, so one hot file's chain
	// (audit burst → verdict → job → transfers) is a single tree.
	tr := m.cluster.Tracer()
	if tr.Enabled() {
		dsp := tr.Instant("judge.decision", tr.Current())
		tr.SetAttr(dsp, "path", path)
		tr.SetAttr(dsp, "action", d.Action.String())
		tr.SetAttrInt(dsp, "target", int64(d.TargetRepl))
		tr.SetAttrInt(dsp, "formula", int64(d.Formula))
		prev := tr.Push(dsp)
		defer tr.Pop(prev)
	}
	m.sched.Submit(job)
}

// afterJob runs post-action housekeeping: shrink/encode may have drained a
// pooled node, which can then power down; increases may need fresh ads.
func (m *Manager) afterJob(d Decision) {
	if d.Action == ActionDecrease || d.Action == ActionEncode {
		m.shutdownDrained()
	}
	m.refreshAds()
}

// commissionFor powers on enough pooled standby nodes to host `need` extra
// replicas (one replica per node).
func (m *Manager) commissionFor(need int) {
	if need <= 0 {
		return
	}
	for _, d := range m.cluster.Datanodes() {
		if need == 0 {
			break
		}
		if m.pool[d.ID] && d.State == hdfs.StateStandby {
			m.cluster.Commission(d.ID)
			m.ctr.commissions.Inc()
			need--
		}
	}
	m.refreshAds()
}

// shutdownDrained powers pooled nodes that hold no blocks back down
// ("after all data in a standby node are removed, ERMS could shut down
// that node for energy saving").
func (m *Manager) shutdownDrained() {
	for _, d := range m.cluster.Datanodes() {
		if m.pool[d.ID] && d.State == hdfs.StateActive && d.NumBlocks() == 0 {
			m.cluster.ToStandby(d.ID)
			m.ctr.shutdowns.Inc()
		}
	}
}

// EnergyReport summarizes pooled-node uptime for the energy-saving claim.
type EnergyReport struct {
	PoolNodes      int
	PoolActiveTime time.Duration // summed uptime across pooled nodes
	AllActiveTime  time.Duration // what keeping the pool always-on would cost
	SavedNodeHours float64
}

// Energy computes the report as of now.
func (m *Manager) Energy() EnergyReport {
	now := m.cluster.Clock().Now()
	var rep EnergyReport
	for id := range m.pool {
		rep.PoolNodes++
		d := m.cluster.Datanode(id)
		up := d.ActiveTime
		if d.State == hdfs.StateActive {
			// Still up: ActiveTime accrues on transition, so add the open
			// interval. The datanode tracks its own activeSince; approximate
			// with full-now minus accounted time only when currently active.
			up = d.ActiveTime + m.openInterval(d, now)
		}
		rep.PoolActiveTime += up
		rep.AllActiveTime += now
	}
	rep.SavedNodeHours = (rep.AllActiveTime - rep.PoolActiveTime).Hours()
	return rep
}

func (m *Manager) openInterval(d *hdfs.Datanode, now time.Duration) time.Duration {
	return d.OpenActiveInterval(now)
}
