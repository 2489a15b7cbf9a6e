package hdfs

import (
	"errors"
	"time"

	"erms/internal/auditlog"
)

// Safe mode is the namenode's degradation guard, modeled on HDFS's
// dfs.safemode.threshold.pct: when block availability or the live-node
// fraction drops below threshold — or right after a checkpoint restore,
// before the cluster's health is known — the namenode stops accepting
// namespace mutations and the manager defers re-replication decisions. A
// transient partition then heals for free instead of triggering a mass
// repair storm; exit requires the thresholds to hold for a dwell period.
//
// Safe mode is detector state, like heartbeat staleness: it is never
// journaled, checkpointed, or folded into StateDigest, and SafeModeConfig
// is excluded from the checkpoint config digest so a guard-enabled primary
// and a plain shadow interoperate.

// ErrSafeMode is returned by namespace mutations while the namenode is in
// safe mode. Callers should back off and retry after the cluster heals.
var ErrSafeMode = errors.New("hdfs: namenode is in safe mode")

// ErrFenced is returned by namespace mutations when this namenode's writer
// epoch is behind the journal's — a standby was promoted and this instance
// is a fenced zombie whose late writes must not interleave.
var ErrFenced = errors.New("hdfs: namenode is fenced (stale journal epoch)")

// replicaThreshold is the minimum fraction of live blocks that must have
// at least one live replica for safe mode to exit (HDFS
// dfs.safemode.threshold.pct).
const replicaThreshold = 0.999

// SafeModeConfig tunes the safe-mode guard.
type SafeModeConfig struct {
	// Enabled turns the guard on. Off by default: mutations are never
	// rejected and restore does not enter safe mode.
	Enabled bool
	// NodeThreshold is the minimum fraction of registered (non-standby)
	// datanodes that must be live and heartbeating.
	// Default 0.5.
	NodeThreshold float64
	// Dwell is how long both thresholds must hold before safe mode exits
	// (HDFS dfs.namenode.safemode.extension). Default 30s.
	Dwell time.Duration
	// CheckInterval paces the safe-mode monitor ticker. Default 3s.
	CheckInterval time.Duration
}

func (s *SafeModeConfig) applyDefaults() {
	if s.NodeThreshold <= 0 {
		s.NodeThreshold = 0.5
	}
	if s.Dwell <= 0 {
		s.Dwell = 30 * time.Second
	}
	if s.CheckInterval <= 0 {
		s.CheckInterval = 3 * time.Second
	}
}

// InSafeMode reports whether the namenode is currently in safe mode.
func (c *Cluster) InSafeMode() bool { return c.safeMode }

// writable is the shared mutation gate: fencing is checked first (a fenced
// writer must reject everything, safe or not), then safe mode.
func (c *Cluster) writable() error {
	if c.Fenced() {
		c.metrics.FencedWritesRejected++
		return ErrFenced
	}
	if c.safeMode {
		c.metrics.SafeModeRejections++
		return ErrSafeMode
	}
	return nil
}

// BlockAvailability returns the fraction of live blocks with at least one
// live replica (1.0 on an empty namespace). Blocks with zero replicas are
// a subset of the under-replicated set, so this never rescans the block
// space.
func (c *Cluster) BlockAvailability() float64 {
	if c.liveBlocks == 0 {
		return 1
	}
	missing := 0
	for bid := range c.underSet {
		if len(c.replicas[bid]) == 0 {
			missing++
		}
	}
	return float64(c.liveBlocks-missing) / float64(c.liveBlocks)
}

// LiveNodeFraction returns the fraction of registered (non-standby)
// datanodes that are live: active, not stale, and not declared dead.
func (c *Cluster) LiveNodeFraction() float64 {
	registered, live := 0, 0
	for _, d := range c.datanodes {
		if d.State == StateStandby {
			continue
		}
		registered++
		if d.State == StateActive && !d.Stale {
			live++
		}
	}
	if registered == 0 {
		return 1
	}
	return float64(live) / float64(registered)
}

// safeModeHealthy reports whether both thresholds currently hold.
func (c *Cluster) safeModeHealthy() bool {
	sm := c.cfg.SafeMode
	return c.BlockAvailability() >= replicaThreshold &&
		c.LiveNodeFraction() >= sm.NodeThreshold
}

// safeModeTick is the safe-mode monitor pass (runs every CheckInterval).
func (c *Cluster) safeModeTick(now time.Duration) { c.evalSafeMode(now) }

// evalSafeMode runs the safe-mode state machine: enter as soon as a
// threshold is breached, leave once both thresholds have held for Dwell.
// declareDead calls it synchronously so mass failures trip the guard
// before repair decisions fire, not a tick later.
func (c *Cluster) evalSafeMode(now time.Duration) {
	if !c.cfg.SafeMode.Enabled {
		return
	}
	healthy := c.safeModeHealthy()
	if !c.safeMode {
		if !healthy {
			c.enterSafeMode("threshold")
		}
		return
	}
	if c.safeModeManual {
		return // only LeaveSafeMode exits a manual entry
	}
	if !healthy {
		c.healthySince = -1
		return
	}
	if c.healthySince < 0 {
		c.healthySince = now
		return
	}
	if now-c.healthySince >= c.cfg.SafeMode.Dwell {
		c.exitSafeMode()
	}
}

// EnterSafeMode puts the namenode in safe mode until LeaveSafeMode is
// called (the dfsadmin -safemode enter workflow); the automatic monitor
// will not exit it.
func (c *Cluster) EnterSafeMode() {
	c.safeModeManual = true
	c.enterSafeMode("manual")
}

// LeaveSafeMode exits safe mode unconditionally (dfsadmin -safemode leave).
func (c *Cluster) LeaveSafeMode() {
	c.safeModeManual = false
	if c.safeMode {
		c.exitSafeMode()
	}
}

// enterSafeMode flips the guard on, once, and fans out to audit, trace,
// metrics, and subscribers.
func (c *Cluster) enterSafeMode(reason string) {
	if c.safeMode {
		return
	}
	c.safeMode = true
	c.healthySince = -1
	c.metrics.SafeModeEntries++
	c.audit.Append(auditlog.Record{
		Time: c.clock.Now(), Allowed: true, UGI: "hdfs",
		IP: "10.0.0.1", Cmd: auditlog.CmdSafeMode, Src: "/enter/" + reason,
	})
	if sp := c.tracer.Instant("hdfs.safemode.enter", c.tracer.Current()); sp != 0 {
		c.tracer.SetAttr(sp, "reason", reason)
	}
	for _, fn := range c.onSafeMode {
		fn(true)
	}
}

// exitSafeMode flips the guard off and fans out.
func (c *Cluster) exitSafeMode() {
	if !c.safeMode {
		return
	}
	c.safeMode = false
	c.healthySince = -1
	c.metrics.SafeModeExits++
	c.audit.Append(auditlog.Record{
		Time: c.clock.Now(), Allowed: true, UGI: "hdfs",
		IP: "10.0.0.1", Cmd: auditlog.CmdSafeMode, Src: "/leave",
	})
	c.tracer.Instant("hdfs.safemode.leave", c.tracer.Current())
	for _, fn := range c.onSafeMode {
		fn(false)
	}
}

// Epoch returns this namenode's writer epoch.
func (c *Cluster) Epoch() uint64 { return c.epoch }

// Fenced reports whether this namenode has lost the writer role: a journal
// is attached and its epoch has moved past ours (a standby was promoted).
func (c *Cluster) Fenced() bool {
	return c.journal != nil && c.journal.Epoch() != c.epoch
}

// AdoptEpoch re-aligns the writer epoch with the attached journal's — the
// moment this namenode (re)wins the writer election. A no-op without a
// journal.
func (c *Cluster) AdoptEpoch() {
	if c.journal != nil {
		c.epoch = c.journal.Epoch()
	}
}
