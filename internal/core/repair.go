package core

import (
	"fmt"
	"sort"

	"erms/internal/condor"
	"erms/internal/hdfs"
)

// The repair pipeline: damaged blocks are classified into HDFS-style
// priority tiers, admitted under a cluster-wide stream cap in (tier,
// BlockID) order and spread under a per-datanode inbound-copy cap, so
// recovery traffic leaves headroom for foreground reads during a mass
// failure. While the namenode is in safe mode the whole sweep defers:
// a transient partition then heals for free instead of triggering a
// repair storm, and the safe-mode exit callback re-arms the sweep
// deterministically.

// Repair priority tiers, highest first. The numeric order is the admission
// order.
const (
	// TierLastReplica: one live replica left (or the block is lost and only
	// erasure reconstruction can bring it back) — any further failure is
	// data loss.
	TierLastReplica = iota
	// TierBelowHalf: fewer than half the target replicas survive.
	TierBelowHalf
	// TierBelowTarget: degraded but comfortably redundant.
	TierBelowTarget
	numRepairTiers
)

// RepairTierNames names the repair tiers in admission-priority order;
// indexes match RepairQueueDepths and the Tier* constants. Shared by
// every surface that renders queue depths (ermsctl status, the /v1/status
// endpoint) so the labels cannot drift.
func RepairTierNames() [numRepairTiers]string {
	return [numRepairTiers]string{"last-replica", "below-half", "below-target"}
}

// RepairConfig throttles the repair pipeline. The zero value gets
// defaults; -1 disables the corresponding cap.
type RepairConfig struct {
	// MaxStreams caps concurrently running block-repair jobs cluster-wide
	// (HDFS dfs.namenode.replication.max-streams writ large). Candidates
	// beyond the cap stay queued and are counted repairs_throttled.
	// Default: 2× the number of datanodes (matching the two Condor slots
	// each machine advertises); -1 = unlimited.
	MaxStreams int
	// MaxStreamsPerNode caps concurrent inbound repair copies per target
	// datanode; capped nodes are excluded from repair placement for the
	// duration. Default 2; -1 = unlimited.
	MaxStreamsPerNode int
}

func (r *RepairConfig) applyDefaults(datanodes int) {
	if r.MaxStreams == 0 {
		r.MaxStreams = 2 * datanodes
	}
	if r.MaxStreamsPerNode == 0 {
		r.MaxStreamsPerNode = 2
	}
}

// repairable reports whether the pipeline can act on the damaged block at
// all: a lost block only if erasure protection can rebuild it, any other
// only while the copies already in flight leave it a deficit (parity
// blocks only matter once lost).
func (m *Manager) repairable(bid hdfs.BlockID) bool {
	b, ok := m.cluster.Block(bid)
	if !ok {
		return false
	}
	if len(m.cluster.Replicas(bid)) == 0 {
		f := m.cluster.File(b.File)
		return f != nil && f.Encoded
	}
	return !b.Parity && m.cluster.Deficit(bid) > 0
}

// repairTier classifies a damaged block into its priority tier.
func (m *Manager) repairTier(bid hdfs.BlockID) int {
	live := len(m.cluster.Replicas(bid))
	switch {
	case live <= 1:
		return TierLastReplica
	case live*2 < m.cluster.ReplTarget(bid):
		return TierBelowHalf
	}
	return TierBelowTarget
}

// repairCand is a repairable damaged block not yet admitted, with its
// tier.
type repairCand struct {
	tier int
	bid  hdfs.BlockID
}

// repairQueue lists the repair candidates in (tier, BlockID) admission
// order.
func (m *Manager) repairQueue() []repairCand {
	var q []repairCand
	for _, bid := range m.cluster.UnderReplicated() {
		if !m.repairing[bid] && m.repairable(bid) {
			q = append(q, repairCand{m.repairTier(bid), bid})
		}
	}
	// UnderReplicated is ascending by BlockID (a documented contract), so a
	// stable sort by tier yields the (tier, BlockID) admission order.
	sort.SliceStable(q, func(i, j int) bool { return q[i].tier < q[j].tier })
	return q
}

// scheduleRepairs is the damage sweep: it admits repair jobs from the
// repair queue until the cluster-wide stream cap fills. In safe mode the
// whole sweep defers (counted repairs_deferred) and re-arms on exit;
// candidates past the cap count repairs_throttled and re-arm on job
// completion plus a delayed rescan.
func (m *Manager) scheduleRepairs() {
	q := m.repairQueue()
	if m.cluster.InSafeMode() {
		m.ctr.repairsDeferred.Add(float64(len(q)))
		return
	}
	throttled := 0
	for _, cd := range q {
		if m.cfg.Repair.MaxStreams > 0 && len(m.repairing) >= m.cfg.Repair.MaxStreams {
			throttled++
			continue
		}
		m.submitRepair(cd.bid, cd.tier)
	}
	if throttled > 0 {
		m.ctr.repairsThrottled.Add(float64(throttled))
		m.armRepairRescan()
	}
}

// submitRepair builds and submits the Condor recovery job for one damaged
// block.
func (m *Manager) submitRepair(bid hdfs.BlockID, tier int) {
	b, _ := m.cluster.Block(bid)
	lost := len(m.cluster.Replicas(bid)) == 0
	m.repairing[bid] = true
	m.ctr.repairs.Inc()
	if _, ok := m.repairStart[bid]; !ok {
		m.repairStart[bid] = m.cluster.Clock().Now()
	}
	var job *condor.Job
	job = &condor.Job{
		Name:  fmt.Sprintf("repair:t%d:%s:block%d", tier, b.File, bid),
		Class: condor.ClassImmediate,
		Retry: m.cfg.RepairRetry,
		Run: func(_ *condor.Machine, done func(error)) {
			if job.Attempt > 1 {
				m.ctr.repairsRetried.Inc()
			}
			// Re-read the damage each attempt: a retry may find the block
			// already healed (restarted node) or newly lost.
			if lost || len(m.cluster.Replicas(bid)) == 0 {
				m.cluster.ReconstructBlock(bid, done)
				return
			}
			// Top the block back up to its target in one job, skipping
			// nodes already at their inbound repair-copy cap.
			need := m.cluster.Deficit(bid)
			if need <= 0 {
				done(nil)
				return
			}
			targets := m.cluster.PlacementPolicy().ChooseTargets(nil, m.cluster, b, need, -1, m.cappedTargets())
			if len(targets) == 0 {
				done(fmt.Errorf("erms: no repair target for block %d", bid))
				return
			}
			remaining := len(targets)
			var firstErr error
			for _, t := range targets {
				m.startRepairCopy(bid, t, func(err error) {
					if err != nil && firstErr == nil {
						firstErr = err
					}
					remaining--
					if remaining == 0 {
						done(firstErr)
					}
				})
			}
		},
		// Notify (not done) observes terminal resolution, so timeout
		// reclaims are bookkept too and repairing[bid] stays held
		// across retry backoffs (no duplicate repair submissions).
		Notify: func(j *condor.Job) {
			delete(m.repairing, bid)
			if j.State == condor.StateCompleted {
				if start, ok := m.repairStart[bid]; ok {
					m.ttr.Add((m.cluster.Clock().Now() - start).Seconds())
					delete(m.repairStart, bid)
				}
				if m.corruptPending[bid] {
					m.ctr.corruptFixed.Inc()
					delete(m.corruptPending, bid)
				}
			} else {
				m.ctr.failedJobs.Inc()
				delete(m.repairStart, bid)
				// The block is still damaged; re-arm the sweep so a later
				// pass retries fresh once the cluster may have healed.
				m.armRepairRescan()
			}
			// A slot opened either way: admit throttled candidates now
			// rather than waiting for the delayed rescan.
			m.scheduleRepairs()
		},
	}
	m.sched.Submit(job)
}

// startRepairCopy launches one repair copy toward t, holding the per-node
// stream accounting for its duration.
func (m *Manager) startRepairCopy(bid hdfs.BlockID, t hdfs.DatanodeID, done func(error)) {
	m.nodeStreams[t]++
	m.streams++
	if lim := m.cfg.Repair.MaxStreamsPerNode; lim > 0 && m.nodeStreams[t] > lim {
		m.capViolations++ // placement exclusion should make this unreachable
	}
	finish := func(err error) {
		m.streams--
		m.nodeStreams[t]--
		if m.nodeStreams[t] <= 0 {
			delete(m.nodeStreams, t)
		}
		done(err)
	}
	m.cluster.AddReplica(bid, t, finish)
}

// cappedTargets returns the datanodes currently at their inbound
// repair-copy cap, for exclusion from repair placement (nil when the cap
// is off), refilled into the manager's reused set.
func (m *Manager) cappedTargets() *hdfs.NodeSet {
	lim := m.cfg.Repair.MaxStreamsPerNode
	if lim <= 0 {
		return nil
	}
	m.capped.Clear()
	for id, n := range m.nodeStreams {
		if n >= lim {
			m.capped.Add(id)
		}
	}
	return &m.capped
}

// RepairCaps returns the effective repair throttling configuration.
func (m *Manager) RepairCaps() RepairConfig { return m.cfg.Repair }

// ActiveRepairJobs returns the number of block-repair jobs currently held
// (submitted and not yet terminally resolved) — the quantity MaxStreams
// caps.
func (m *Manager) ActiveRepairJobs() int { return len(m.repairing) }

// ActiveRepairStreams returns repair copies currently in flight.
func (m *Manager) ActiveRepairStreams() int { return m.streams }

// NodeRepairStreams returns a copy of the per-datanode in-flight repair
// copy counts.
func (m *Manager) NodeRepairStreams() map[hdfs.DatanodeID]int {
	out := make(map[hdfs.DatanodeID]int, len(m.nodeStreams))
	for id, n := range m.nodeStreams {
		out[id] = n
	}
	return out
}

// CapViolations returns how many times a repair copy was started against a
// node already at its per-node cap. It must stay zero; the repair-cap
// invariant oracle asserts that.
func (m *Manager) CapViolations() int { return m.capViolations }

// RepairQueueDepths returns the current per-tier depth of the repair
// queue: repairable damaged blocks not yet admitted, classified by tier.
// Index by the Tier* constants.
func (m *Manager) RepairQueueDepths() [numRepairTiers]int {
	var out [numRepairTiers]int
	for _, cd := range m.repairQueue() {
		out[cd.tier]++
	}
	return out
}
