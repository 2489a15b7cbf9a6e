package hdfs

import (
	"cmp"
	"fmt"
	"slices"

	"erms/internal/auditlog"
	"erms/internal/netsim"
	"erms/internal/topology"
)

// admit grants r a serving session on d, queuing it when the node is at its
// session limit ("when the number of sessions has reached its upper bound,
// the connection requests ... will be blocked"). A queued read is refused
// instead if the node leaves service first (abortServing).
func (c *Cluster) admit(d *Datanode, r *blockRead) {
	if d.sessions < d.MaxSessions && d.canServe() {
		d.sessions++
		r.admitted()
		return
	}
	d.waiting = append(d.waiting, r)
}

// release frees a session and admits the next waiters.
func (c *Cluster) release(d *Datanode) {
	d.sessions--
	c.drainWaiting(d)
}

// drainWaiting admits queued reads in arrival order while d serves and has
// a free session.
func (c *Cluster) drainWaiting(d *Datanode) {
	for len(d.waiting) > 0 && d.sessions < d.MaxSessions && d.canServe() {
		r := d.waiting[0]
		d.waiting[0] = nil
		d.waiting = d.waiting[1:]
		d.sessions++
		r.admitted()
	}
}

// Fault is what a datanode is really doing, as opposed to what the
// namenode believes of it (State, Stale); the zero Fault is a healthy node.
// SetFault is the one way to set it.
type Fault struct {
	// Crashed: the process is gone. With heartbeats the namenode keeps its
	// belief until DeadTimeout; without, the crash is declared dead at once.
	Crashed bool
	// Muted: heartbeats stop reaching the namenode while the data plane
	// serves on (a long GC pause), so the node ages toward stale and dead.
	Muted bool
	// Slow is the share of nominal rate the disk and both NIC directions
	// run at; 0 is full speed. Restart clears Crashed and Muted, not Slow.
	Slow float64
}

// SetFault makes f what node id is really doing and reports whether it
// took. A crash aborts the node's transfers and queued reads (with
// heartbeats off it is declared dead at once); a mute stops its
// heartbeats; a Slow above 0 re-rates its links (1 restores full speed)
// and always takes. An unknown id, a negative Slow, a crash or mute of a
// Down node, clearing Crashed (Restart's job) and a no-op return false.
func (c *Cluster) SetFault(id DatanodeID, f Fault) bool {
	d := c.Datanode(id)
	if d == nil || f.Slow < 0 || d.fault.Crashed && !f.Crashed {
		return false
	}
	crash := f.Crashed && !d.fault.Crashed
	if (crash || f.Muted && !d.fault.Muted) && d.Down() {
		return false // a down node takes no new crash or mute
	}
	if !crash && f.Muted == d.fault.Muted && f.Slow == 0 {
		return false // nothing would change
	}
	d.fault.Muted = f.Muted
	if f.Slow > 0 {
		d.fault.Slow = f.Slow
		if f.Slow == 1 {
			d.fault.Slow = 0
		}
		node := c.topo.Node(topology.NodeID(id))
		for _, l := range [...]topology.LinkID{node.Disk, node.NICIn, node.NICOut} {
			c.fabric.SetLinkFactor(l, f.Slow)
		}
	}
	switch {
	case !crash:
	case !c.cfg.Heartbeat.Enabled:
		c.declareDead(id)
	default:
		d.ActiveTime += d.OpenActiveInterval(c.clock.Now())
		d.fault.Crashed = true
		c.reindexNode(d)
		c.abortServing(d)
	}
	return true
}

// setState moves d to the namenode's belief s; every transition, journal
// replay's included, comes through here. It re-indexes d for placement
// and journals the transition. restart marks a fresh incarnation and
// wipes the previous one's disk and faults first. A node believed down
// holds no replicas, so entering StateDown releases them, and takes no
// copy: the copies toward it stop counting before OnDatanodeDown fires,
// so the repair sweep its death triggers sees their blocks short, and
// each copy's transfer is cancelled and its done fails, so none lands on
// the node's next incarnation. Entering StateActive stamps a fresh uptime
// interval. The live cluster also closes the interval d was in (a crash
// has already closed it), and aborts d's transfers and queued reads when
// s does not serve, or admits its queue when s starts serving. Replay
// does none of that: the journal carries no energy bookkeeping or flows,
// so the gap between a real activation and its replay is not billed as
// active.
func (c *Cluster) setState(d *Datanode, s NodeState, restart bool) {
	now, was := c.clock.Now(), d.State
	if !c.replaying {
		d.ActiveTime += d.OpenActiveInterval(now)
	}
	if restart {
		d.blocks = blockSet{}
		d.corrupt = make(map[BlockID]bool)
		d.reported = make(map[BlockID]bool)
		d.Used = 0
		d.sessions = 0
		d.waiting = nil
		d.fault = Fault{Slow: d.fault.Slow}
		d.Stale = false
	}
	d.State = s
	switch s {
	case StateActive:
		d.activeSince, d.lastHeartbeat = now, now
	case StateDown:
		d.Stale = false // staleness ends at death
		for len(d.inbound) > 0 {
			cp := d.inbound[0]
			c.settleCopy(d, cp)
			// End a running transfer. One not yet started fails when its
			// command arrives, one already landed in its completion.
			if cp.flow != nil && !cp.flow.Done() {
				delete(cp.src.activeFlows, cp.flow)
				c.fabric.Cancel(cp.flow)
				cp.src.xferOut--
				d.xferIn--
				cp.fail(fmt.Errorf("hdfs: target %s died during copy", d.Name))
			}
		}
	}
	c.reindexNode(d)
	c.jlog(auditlog.Entry{Op: auditlog.OpNodeState, Node: int(d.ID), State: int(s), Flag: restart})
	if !c.replaying {
		if s != StateActive {
			c.abortServing(d)
		} else if was != StateActive {
			c.drainWaiting(d)
		}
	}
	if s == StateDown {
		d.blocks.Each(func(bid BlockID) {
			c.detachReplica(bid, d.ID)
		})
	}
}

// Commission switches a standby datanode to active (ERMS "could start
// standby nodes"). Queued admissions drain immediately.
func (c *Cluster) Commission(id DatanodeID) {
	d := c.datanodes[id]
	if d.State != StateStandby {
		return
	}
	if sp := c.tracer.Instant("hdfs.commission", c.tracer.Current()); sp != 0 {
		c.tracer.SetAttr(sp, "node", d.Name)
	}
	c.setState(d, StateActive, false)
	for _, fn := range c.onNodeUp {
		fn(id)
	}
}

// ToStandby powers a node down to standby for energy saving ("after all
// data in a standby node are removed, ERMS could shut down that node").
// The caller is responsible for draining replicas first; replicas still on
// the node simply become unavailable until it is commissioned again.
func (c *Cluster) ToStandby(id DatanodeID) {
	d := c.datanodes[id]
	if d.State != StateActive {
		return
	}
	if sp := c.tracer.Instant("hdfs.standby", c.tracer.Current()); sp != 0 {
		c.tracer.SetAttr(sp, "node", d.Name)
	}
	c.setState(d, StateStandby, false)
}

// Kill crashes node id's process (SetFault with Crashed) and reports
// whether it took. With heartbeats off the namenode notices at once:
// replicas release and OnDatanodeDown fires. With them on it counts the
// node's replicas as live until the node misses DeadTimeout of heartbeats.
func (c *Cluster) Kill(id DatanodeID) bool {
	d := c.Datanode(id)
	return d != nil && c.SetFault(id, Fault{Crashed: true, Muted: d.fault.Muted})
}

// Restart brings a down node back empty (fresh disk), active, and
// reports whether it did. A crashed node the namenode has not yet declared
// dead (heartbeat mode) is declared dead first — its replicas release and
// OnDatanodeDown fires — then the fresh process registers and OnDatanodeUp
// fires.
func (c *Cluster) Restart(id DatanodeID) bool {
	d := c.Datanode(id)
	if d == nil || !d.Down() {
		return false
	}
	if d.State != StateDown {
		c.declareDead(id)
	}
	c.setState(d, StateActive, true)
	for _, fn := range c.onNodeUp {
		fn(id)
	}
	return true
}

// abortServing aborts every flow served from d, then refuses its queued
// admissions: the node left service, and each read retries elsewhere.
func (c *Cluster) abortServing(d *Datanode) {
	var victims []victim
	for f, h := range d.activeFlows {
		victims = append(victims, victim{d, f, h})
	}
	c.abortFlows(victims)
	waiting := d.waiting
	d.waiting = nil
	for _, r := range waiting {
		r.retryAfter("admission aborted")
	}
}

// victim is a tracked flow to abort: its serving node and handle.
type victim struct {
	d *Datanode
	f *netsim.Flow
	h *flowHandle
}

// abortFlows untracks and cancels the victims' flows, then fires their
// abort handlers (which retry reads on other replicas), both in flow-ID
// order, so the outcome is deterministic. A flow that has already landed,
// its completion callback still to run in this instant's batch, is left to
// that callback: aborting it too would end its transfer twice.
func (c *Cluster) abortFlows(victims []victim) {
	victims = slices.DeleteFunc(victims, func(v victim) bool { return v.f.Done() })
	slices.SortFunc(victims, func(a, b victim) int { return cmp.Compare(a.f.ID(), b.f.ID()) })
	for _, v := range victims {
		delete(v.d.activeFlows, v.f)
		c.fabric.Cancel(v.f)
	}
	for _, v := range victims {
		v.h.abort()
	}
}
