package hdfs

import (
	"cmp"
	"fmt"
	"slices"

	"erms/internal/auditlog"
	"erms/internal/netsim"
)

// admit grants r a serving session on d, queuing it when the node is at its
// session limit ("when the number of sessions has reached its upper bound,
// the connection requests ... will be blocked"). A queued read is refused
// instead if the node leaves service first (abortWaiting).
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

// Commission switches a standby datanode to active (ERMS "could start
// standby nodes"). Queued admissions drain immediately.
func (c *Cluster) Commission(id DatanodeID) {
	d := c.datanodes[id]
	if d.State != StateStandby {
		return
	}
	d.State = StateActive
	d.activeSince = c.clock.Now()
	d.lastHeartbeat = c.clock.Now()
	c.reindexNode(d)
	c.jlog(auditlog.Entry{Op: auditlog.OpNodeState, Node: int(id), State: int(StateActive)})
	if sp := c.tracer.Instant("hdfs.commission", c.tracer.Current()); sp != 0 {
		c.tracer.SetAttr(sp, "node", d.Name)
	}
	c.drainWaiting(d)
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
	d.ActiveTime += c.clock.Now() - d.activeSince
	d.State = StateStandby
	c.reindexNode(d)
	c.jlog(auditlog.Entry{Op: auditlog.OpNodeState, Node: int(id), State: int(StateStandby)})
	if sp := c.tracer.Instant("hdfs.standby", c.tracer.Current()); sp != 0 {
		c.tracer.SetAttr(sp, "node", d.Name)
	}
	c.abortServing(d)
	c.abortWaiting(d)
}

// Kill crashes a datanode's process: in-flight transfers it serves abort
// (reads retry elsewhere) and queued admissions fail. With heartbeats
// disabled the namenode notices instantly — replicas are released and
// OnDatanodeDown fires now. With heartbeats enabled the namenode keeps
// counting the node's replicas as live until it misses heartbeats long
// enough to go stale and then dead (declareDead).
func (c *Cluster) Kill(id DatanodeID) {
	d := c.datanodes[id]
	if d.State == StateDown || d.crashed {
		return
	}
	if !c.cfg.Heartbeat.Enabled {
		c.declareDead(id)
		return
	}
	if d.State == StateActive {
		d.ActiveTime += c.clock.Now() - d.activeSince
	}
	d.crashed = true
	c.reindexNode(d)
	c.abortServing(d)
	c.abortWaiting(d)
}

// Decommission gracefully drains a datanode: it keeps serving reads while
// every replica it holds is copied to other nodes, then leaves service as
// StateDecommissioned. done(err) fires when the drain completes; err
// reports blocks that could not be re-homed (they stay on the node and the
// node stays decommissioning). This is the admin workflow whose
// commission/decommission events the paper detects through Condor
// ClassAds.
func (c *Cluster) Decommission(id DatanodeID, done func(error)) {
	d := c.datanodes[id]
	if d.State != StateActive || d.crashed {
		c.finish(done, fmt.Errorf("hdfs: %s is %s, not active", d.Name, d.State))
		return
	}
	d.ActiveTime += c.clock.Now() - d.activeSince
	d.State = StateDecommissioning
	c.reindexNode(d)
	c.jlog(auditlog.Entry{Op: auditlog.OpNodeState, Node: int(id), State: int(StateDecommissioning)})
	blocks := make([]BlockID, 0, d.blocks.Len())
	d.blocks.Each(func(bid BlockID) { blocks = append(blocks, bid) }) // ascending
	outstanding := 0
	var firstErr error
	finishDrain := func() {
		// The node may have left StateDecommissioning while the drain was
		// in flight — killed, or restarted after a kill. Finishing the
		// retirement then would resurrect a dead node (or wipe a live
		// one's accounting), so the decommission aborts instead.
		if d.State != StateDecommissioning {
			c.finish(done, fmt.Errorf("hdfs: decommission of %s aborted: node is %s", d.Name, d.State))
			return
		}
		if firstErr != nil {
			c.finish(done, firstErr)
			return
		}
		// Copies landed everywhere: drop this node's replicas and retire it.
		for _, bid := range blocks {
			if d.HasBlock(bid) {
				c.detachReplica(c.blocks[bid], id)
			}
		}
		d.State = StateDecommissioned
		c.reindexNode(d)
		c.jlog(auditlog.Entry{Op: auditlog.OpNodeState, Node: int(id), State: int(StateDecommissioned)})
		c.abortServing(d)
		c.abortWaiting(d)
		c.finish(done, nil)
	}
	complete := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		outstanding--
		if outstanding == 0 {
			finishDrain()
		}
	}
	var self NodeSet // the draining node: never its own drain target
	self.Add(id)
	var targets []DatanodeID
	for _, bid := range blocks {
		targets = c.placement.ChooseTargets(targets[:0], c, c.blocks[bid], 1, -1, &self)
		if len(targets) == 0 {
			if firstErr == nil {
				firstErr = fmt.Errorf("hdfs: no target to drain block %d off %s", bid, d.Name)
			}
			continue
		}
		outstanding++
		c.AddReplica(bid, targets[0], complete)
	}
	if outstanding == 0 {
		finishDrain()
	}
}

// Restart brings a dead node back empty (fresh disk), active. A crashed
// node the namenode has not yet declared dead (heartbeat mode) is declared
// dead first — its replicas release and OnDatanodeDown fires — then the
// fresh process registers and OnDatanodeUp fires.
func (c *Cluster) Restart(id DatanodeID) {
	d := c.datanodes[id]
	if d.crashed && d.State != StateDown {
		c.declareDead(id)
	}
	if d.State != StateDown {
		return
	}
	d.blocks = blockSet{}
	d.corrupt = make(map[BlockID]bool)
	d.reported = make(map[BlockID]bool)
	d.Used = 0
	d.sessions = 0
	d.waiting = nil
	d.crashed = false
	d.stalled = false
	d.Stale = false
	d.State = StateActive
	d.activeSince = c.clock.Now()
	d.lastHeartbeat = c.clock.Now()
	c.reindexNode(d)
	c.jlog(auditlog.Entry{Op: auditlog.OpNodeState, Node: int(id), State: int(StateActive), Flag: true})
	for _, fn := range c.onNodeUp {
		fn(id)
	}
}

// abortServing aborts every flow served from d.
func (c *Cluster) abortServing(d *Datanode) {
	var victims []victim
	for f, h := range d.activeFlows {
		victims = append(victims, victim{d, f, h})
	}
	c.abortFlows(victims)
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

// abortWaiting refuses every queued admission on d (the node left service);
// each read retries elsewhere.
func (c *Cluster) abortWaiting(d *Datanode) {
	waiting := d.waiting
	d.waiting = nil
	for _, r := range waiting {
		r.retryAfter("admission aborted")
	}
}
