// Package chaos is a scripted fault-injection harness for the simulated
// cluster. A Plan is a time-ordered list of fault events — node crashes
// and restarts, rack partitions and heals, slow disks/NICs, silent
// replica corruption — applied to a live hdfs.Cluster at their scheduled
// virtual times. Storm generates a random but fully seeded Plan, so a
// six-hour failure barrage is reproducible bit-for-bit and usable in
// deterministic soak tests.
package chaos

import (
	"fmt"
	"sort"
	"time"

	"erms/internal/hdfs"
	"erms/internal/sim"
	"erms/internal/topology"
)

// Kind labels one fault type.
type Kind int

// Fault kinds.
const (
	// Crash kills a datanode process (heartbeats stop; with heartbeat
	// detection enabled the namenode only notices after StaleTimeout).
	Crash Kind = iota
	// Restart brings a crashed/down datanode back with an empty disk.
	Restart
	// PartitionRack cuts a rack off from the rest of the cluster.
	PartitionRack
	// HealRack lifts a rack partition.
	HealRack
	// SlowNode degrades a node's disk and both NIC directions to Factor ×
	// nominal capacity (a failing disk, a flapping NIC).
	SlowNode
	// RestoreNode returns a slowed node's links to full capacity.
	RestoreNode
	// CorruptReplica silently flips bits in one stored replica, chosen at
	// fire time by (BlockOrdinal, ReplicaOrdinal) over the live namespace.
	CorruptReplica
	// ZombiePrimary is a fenced-writer drill: a standby's promotion bumps
	// the journal epoch, the lingering primary's late create and delete
	// must bounce with hdfs.ErrFenced, and the primary then re-wins the
	// election (AdoptEpoch). Skipped on a cluster with no journal.
	ZombiePrimary
	// MuteNode stops a node's heartbeats without touching its data plane
	// (a long GC pause, a wedged heartbeat thread): the namenode ages it
	// toward stale/dead while it keeps serving. PerKind counts it "stall".
	MuteNode
	// UnmuteNode restores a muted node's heartbeats ("unstall").
	UnmuteNode
	// RestartRack restarts every down or crashed node in a rack — the power
	// coming back after a whole-rack outage.
	RestartRack
)

// kindNames is each Kind's name in Report.PerKind.
var kindNames = [...]string{Crash: "crash", Restart: "restart", PartitionRack: "partition",
	HealRack: "heal", SlowNode: "slow", RestoreNode: "restore", CorruptReplica: "corrupt",
	ZombiePrimary: "zombie-primary", MuteNode: "stall", UnmuteNode: "unstall",
	RestartRack: "restart-rack"}

// String names the kind as Report.PerKind counts it.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// Event is one scheduled fault.
type Event struct {
	At   time.Duration
	Kind Kind
	// Node targets Crash/Restart/SlowNode/RestoreNode/MuteNode/UnmuteNode.
	Node hdfs.DatanodeID
	// Rack targets PartitionRack/HealRack/RestartRack.
	Rack int
	// Factor is SlowNode's capacity multiplier (0 < Factor < 1 degrades).
	Factor float64
	// BlockOrdinal / ReplicaOrdinal select CorruptReplica's victim at fire
	// time: ordinal modulo the live block list (sorted by ID) and that
	// block's replica list. Resolving late keeps plans valid against a
	// namespace that did not exist when the plan was written.
	BlockOrdinal   int
	ReplicaOrdinal int
}

// Plan is a scripted fault schedule.
type Plan struct {
	Events []Event
}

// Report tallies what a scheduled plan actually did.
type Report struct {
	Applied int
	// Skipped events found no valid target at fire time (restart of a
	// node that is not down, corruption of an empty namespace, …).
	Skipped int
	// PerKind counts applied events by kind string.
	PerKind map[string]int
}

// Schedule installs every event of the plan onto the cluster's engine.
// The returned Report is filled in as events fire; read it after the
// simulation has run past the last event.
func (p *Plan) Schedule(engine *sim.Engine, c *hdfs.Cluster) *Report {
	rep := &Report{PerKind: map[string]int{}}
	events := append([]Event(nil), p.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	now := engine.Now()
	for _, ev := range events {
		ev := ev
		delay := ev.At - now
		if delay < 0 {
			delay = 0
		}
		engine.Schedule(delay, func() {
			if apply(c, ev) {
				rep.Applied++
				rep.PerKind[ev.Kind.String()]++
			} else {
				rep.Skipped++
			}
		})
	}
	return rep
}

// apply executes one fault against the cluster; false means no valid
// target existed at fire time.
func apply(c *hdfs.Cluster, ev Event) bool {
	switch ev.Kind {
	case ZombiePrimary:
		j := c.Journal()
		if j == nil {
			return false
		}
		// The promoted standby fences this writer; its late mutations must
		// bounce (Metrics.FencedWritesRejected counts them) before it
		// re-wins the election and resumes as writer.
		j.BumpEpoch()
		probe := fmt.Sprintf("/zombie/probe-%d", j.NextSeq())
		_, _ = c.CreateFile(probe, 1, 1, -1)
		_ = c.DeleteFile(probe)
		c.AdoptEpoch()
		return true
	case RestartRack:
		topo := c.Topology()
		restarted := false
		for _, d := range c.Datanodes() {
			if topo.Rack(topology.NodeID(d.ID)) == ev.Rack {
				restarted = c.Restart(d.ID) || restarted
			}
		}
		return restarted
	case Crash:
		return c.Kill(ev.Node)
	case Restart:
		return c.Restart(ev.Node)
	case MuteNode, UnmuteNode, SlowNode, RestoreNode:
		d := c.Datanode(ev.Node)
		if d == nil {
			return false
		}
		f := d.Fault()
		f.Slow = 0 // keeps the node's rate: only slow and restore re-rate
		switch ev.Kind {
		case MuteNode, UnmuteNode:
			f.Muted = ev.Kind == MuteNode
		case SlowNode:
			f.Slow = ev.Factor
		default:
			f.Slow = 1
		}
		return c.SetFault(ev.Node, f)
	case PartitionRack:
		if c.RackPartitioned(ev.Rack) {
			return false
		}
		c.PartitionRack(ev.Rack)
		return true
	case HealRack:
		if !c.RackPartitioned(ev.Rack) {
			return false
		}
		c.HealRack(ev.Rack)
		return true
	case CorruptReplica:
		bid, dn, ok := pickVictim(c, ev.BlockOrdinal, ev.ReplicaOrdinal)
		if !ok {
			return false
		}
		return c.CorruptReplica(bid, dn) == nil
	}
	return false
}

// pickVictim resolves a corruption target over the live namespace:
// blocks (data then parity, per file in path order) sorted by ID, indexed
// by ordinal modulo length; ditto for the block's replica list.
func pickVictim(c *hdfs.Cluster, blockOrdinal, replicaOrdinal int) (hdfs.BlockID, hdfs.DatanodeID, bool) {
	var ids []hdfs.BlockID
	for _, path := range c.FilePaths() {
		f := c.File(path)
		ids = append(ids, f.Blocks...)
		ids = append(ids, f.Parity()...)
	}
	if len(ids) == 0 {
		return 0, 0, false
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	bid := ids[mod(blockOrdinal, len(ids))]
	reps := c.Replicas(bid)
	if len(reps) == 0 {
		return 0, 0, false
	}
	return bid, reps[mod(replicaOrdinal, len(reps))], true
}

func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// String renders the plan, one event per line, for debugging and golden
// comparisons.
func (p *Plan) String() string {
	out := ""
	for _, ev := range p.Events {
		out += fmt.Sprintf("%010.3fs %s node=%d rack=%d factor=%g ord=%d/%d\n",
			ev.At.Seconds(), ev.Kind, ev.Node, ev.Rack, ev.Factor,
			ev.BlockOrdinal, ev.ReplicaOrdinal)
	}
	return out
}
