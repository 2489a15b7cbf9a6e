package hdfs

import (
	"sort"
	"time"

	"erms/internal/auditlog"
	"erms/internal/netsim"
	"erms/internal/topology"
)

// HeartbeatConfig tunes the heartbeat failure detector. When Enabled, the
// namenode learns of node death only by missing heartbeats: a silent node
// becomes Stale after StaleTimeout (reads avoid it, writes exclude it) and
// dead after DeadTimeout (OnDatanodeDown fires and its replicas are
// released for re-replication). A node that resumes heartbeating before
// DeadTimeout — e.g. its rack partition heals — rejoins with its blocks
// intact; corrupt replicas found in its re-registration block report are
// quarantined.
//
// The timeouts mirror HDFS: dfs.namenode.stale.datanode.interval (30s
// default) and the 2*recheck+10*heartbeat dead interval (10m30s in 0.20's
// successors; we round to 10m).
type HeartbeatConfig struct {
	// Enabled turns the detector on. Off (the default), Kill declares the
	// node dead instantly — the legacy behaviour.
	Enabled bool
	// Interval between heartbeats; default 3s.
	Interval time.Duration
	// StaleTimeout before a silent node is marked stale; default 30s.
	StaleTimeout time.Duration
	// DeadTimeout before a silent node is declared dead; default 10m.
	DeadTimeout time.Duration
}

func (h *HeartbeatConfig) applyDefaults() {
	if h.Interval <= 0 {
		h.Interval = 3 * time.Second
	}
	if h.StaleTimeout <= 0 {
		h.StaleTimeout = 30 * time.Second
	}
	if h.DeadTimeout <= 0 {
		h.DeadTimeout = 10 * time.Minute
	}
}

// heartbeatTick is the namenode's monitor pass: record heartbeats from
// reachable live nodes, and age out silent ones to stale then dead.
// Datanodes are visited in ID order so runs are deterministic.
func (c *Cluster) heartbeatTick(now time.Duration) {
	hb := c.cfg.Heartbeat
	for _, d := range c.datanodes {
		switch d.State {
		case StateStandby, StateDown, StateDecommissioned:
			continue
		}
		if !d.crashed && !d.stalled && !c.partitioned[c.topo.Rack(topology.NodeID(d.ID))] {
			d.lastHeartbeat = now
			if d.Stale {
				d.Stale = false
				c.reindexNode(d)
				c.jlog(auditlog.Entry{Op: auditlog.OpNodeStale, Node: int(d.ID), Flag: false})
				c.reconcileRejoin(d)
			}
			continue
		}
		age := now - d.lastHeartbeat
		switch {
		case age >= hb.DeadTimeout:
			c.declareDead(d.ID)
		case age >= hb.StaleTimeout && !d.Stale:
			d.Stale = true
			c.metrics.StaleTransitions++
			c.reindexNode(d)
			c.jlog(auditlog.Entry{Op: auditlog.OpNodeStale, Node: int(d.ID), Flag: true})
		}
	}
}

// reconcileRejoin handles a stale node resuming heartbeats: its blocks are
// still in the namenode's map (it was never declared dead), but the block
// report it sends on rejoin surfaces replicas that went bad while it was
// unreachable — those are quarantined now.
func (c *Cluster) reconcileRejoin(d *Datanode) {
	if len(d.corrupt) == 0 {
		return
	}
	ids := make([]BlockID, 0, len(d.corrupt))
	for bid := range d.corrupt {
		ids = append(ids, bid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, bid := range ids {
		if b := c.blocks[bid]; b != nil {
			c.reportCorrupt(b, d.ID)
		}
	}
}

// declareDead performs the namenode side of node death: the node leaves
// service, its in-flight transfers abort (retrying elsewhere), its
// replicas drop out of the block map, and OnDatanodeDown fires. With
// heartbeats enabled this runs DeadTimeout after the last heartbeat; with
// them disabled, Kill calls it directly.
func (c *Cluster) declareDead(id DatanodeID) {
	d := c.datanodes[id]
	if d.State == StateDown {
		return
	}
	if d.State == StateActive && !d.crashed {
		d.ActiveTime += c.clock.Now() - d.activeSince
	}
	d.State = StateDown
	d.Stale = false
	c.reindexNode(d)
	c.jlog(auditlog.Entry{Op: auditlog.OpNodeState, Node: int(id), State: int(StateDown)})
	c.abortServing(d)
	c.abortWaiting(d)
	// Drop its replicas from the block map (space bookkeeping stays — the
	// disk is gone with the node, but Used on a dead node is irrelevant).
	d.blocks.Each(func(bid BlockID) {
		c.detachReplica(c.blocks[bid], id)
	})
	// Re-evaluate safe mode before repair decisions fire: in a correlated
	// failure the guard must trip mid-cascade so the remaining deaths defer
	// their re-replication instead of scheduling a repair storm.
	c.evalSafeMode(c.clock.Now())
	for _, fn := range c.onDeadNode {
		fn(id)
	}
}

// PartitionRack cuts rack r off from the rest of the cluster and from
// external clients. Flows crossing the cut abort immediately (reads retry
// on reachable replicas); intra-rack traffic keeps working. With
// heartbeats enabled the rack's nodes stop heartbeating and age to stale,
// then dead; healing before DeadTimeout rejoins them with blocks intact.
func (c *Cluster) PartitionRack(r int) {
	if c.partitioned[r] {
		return
	}
	c.partitioned[r] = true
	c.abortCrossing(r)
}

// HealRack reconnects a partitioned rack. Nodes that were not yet declared
// dead resume heartbeating on the next tick and shed their stale flag;
// nodes already declared dead stay down until restarted.
func (c *Cluster) HealRack(r int) {
	delete(c.partitioned, r)
}

// RackPartitioned reports whether rack r is currently cut off.
func (c *Cluster) RackPartitioned(r int) bool { return c.partitioned[r] }

// NodeUnreachable reports whether the datanode sits in a partitioned rack
// (the namenode and everything outside the rack cannot talk to it).
func (c *Cluster) NodeUnreachable(id DatanodeID) bool {
	if len(c.partitioned) == 0 {
		return false
	}
	return c.partitioned[c.topo.Rack(topology.NodeID(id))]
}

// reachable reports whether endpoints a and b can exchange traffic given
// the current rack partitions. Negative IDs are external clients, which
// partitioned racks cannot reach; nodes inside the same rack always reach
// each other (the top-of-rack switch still works).
func (c *Cluster) reachable(a, b topology.NodeID) bool {
	if len(c.partitioned) == 0 {
		return true
	}
	ra, rb := -1, -1
	if a >= 0 && int(a) < c.topo.NumNodes() {
		ra = c.topo.Rack(a)
	}
	if b >= 0 && int(b) < c.topo.NumNodes() {
		rb = c.topo.Rack(b)
	}
	if ra >= 0 && ra == rb {
		return true
	}
	if ra >= 0 && c.partitioned[ra] {
		return false
	}
	if rb >= 0 && c.partitioned[rb] {
		return false
	}
	return true
}

// abortCrossing cancels every tracked flow with exactly one endpoint in
// rack r — the transfers a fresh partition severs. Handlers fire in
// deterministic flow-ID order.
func (c *Cluster) abortCrossing(r int) {
	type victim struct {
		d *Datanode
		f *netsim.Flow
		h *flowHandle
	}
	var victims []victim
	for _, d := range c.datanodes {
		inside := c.topo.Rack(topology.NodeID(d.ID)) == r
		for f, h := range d.activeFlows {
			peerInside := h.peer >= 0 && int(h.peer) < c.topo.NumNodes() &&
				c.topo.Rack(h.peer) == r
			if inside != peerInside {
				victims = append(victims, victim{d, f, h})
			}
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].f.ID() < victims[j].f.ID() })
	for _, v := range victims {
		delete(v.d.activeFlows, v.f)
		c.fabric.Cancel(v.f)
	}
	for _, v := range victims {
		v.h.abort()
	}
}

// StaleNodes lists datanodes currently marked stale, in ID order.
func (c *Cluster) StaleNodes() []DatanodeID {
	var out []DatanodeID
	for _, d := range c.datanodes {
		if d.Stale {
			out = append(out, d.ID)
		}
	}
	return out
}

// UnrecoverableBlocks lists blocks that are gone for good as of now: no
// live replica and either no erasure protection or too few surviving
// stripe members to reconstruct. A block whose only copies are all flagged
// corrupt counts too; a parity block of an encode still in flight does not
// (EncodeFile registers it before its transfer lands, and until the file is
// Encoded it protects nothing). The durability experiments treat a nonzero
// result as data loss.
func (c *Cluster) UnrecoverableBlocks() []BlockID {
	var out []BlockID
	for _, b := range c.blocks {
		if b == nil || c.blockRecoverable(b) {
			continue
		}
		out = append(out, b.ID)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// blockRecoverable reports whether at least one clean path to the block's
// bytes still exists: a non-corrupt replica, or >= k live stripe members
// of its erasure group. A parity block whose file is not Encoded yet has no
// bytes to lose (its transfer is in flight) and counts as recoverable.
func (c *Cluster) blockRecoverable(b *Block) bool {
	for _, dn := range c.replicas[b.ID] {
		if !c.datanodes[dn].corrupt[b.ID] {
			return true
		}
	}
	f := c.fileOf(b)
	if f == nil {
		return false
	}
	if !f.Encoded {
		return b.Parity
	}
	data, parity, ok := c.stripeOf(f, b.ID)
	if !ok {
		return false
	}
	k := len(data)
	live := 0
	for _, member := range append(append([]BlockID{}, data...), parity...) {
		if member == b.ID {
			continue
		}
		for _, dn := range c.replicas[member] {
			if !c.datanodes[dn].corrupt[member] {
				live++
				break
			}
		}
	}
	return live >= k
}
