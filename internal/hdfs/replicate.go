package hdfs

import (
	"fmt"
	"slices"
	"sort"

	"erms/internal/auditlog"
	"erms/internal/netsim"
	"erms/internal/topology"
)

// chooseSource picks the replica to copy from: least busy first (serving
// sessions plus outbound AND inbound transfers — a node mid-way through
// receiving a repair copy is a busy disk, not an idle source), then a node
// in the target's rack (cheaper transfer), then smallest ID. Load comes
// first so a burst of copies fans out across source disks instead of
// hammering one replica. Standby holders can serve replication even though
// they do not serve client reads (the node is powered for the transfer).
//
// allowLocal permits the target node itself as the source (a node-local
// disk read). Re-replicating a block to a node already holding it is
// meaningless, so AddReplica passes false — but encode and rebuild read
// *other* blocks of a stripe to the target, and the target holding the
// only clean copy of one of them must not doom the operation.
func (c *Cluster) chooseSource(id BlockID, target DatanodeID, allowLocal bool) (DatanodeID, bool) {
	var best DatanodeID = -1
	bestKey := [3]int{1 << 30, 99, 1 << 30}
	for _, r := range c.replicas[id] {
		d := c.datanodes[r]
		if d.Down() || (r == target && !allowLocal) {
			continue
		}
		// Never copy from a corrupt replica (it would propagate the rot) or
		// across a partition the transfer cannot cross.
		if d.corrupt[id] || !c.reachable(topology.NodeID(r), topology.NodeID(target)) {
			continue
		}
		rackTier := 1
		if c.topo.SameRack(topology.NodeID(r), topology.NodeID(target)) {
			rackTier = 0
		}
		key := [3]int{d.sessions + d.xferOut + d.xferIn, rackTier, int(r)}
		if best < 0 || less3(key, bestKey) {
			best, bestKey = r, key
		}
	}
	return best, best >= 0
}

func less3(a, b [3]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// AddReplica copies block id onto target, calling done(err) when the
// transfer lands. The copy streams disk-to-disk over the fabric.
func (c *Cluster) AddReplica(id BlockID, target DatanodeID, done func(error)) {
	parentSpan := c.tracer.Current()
	sp := c.tracer.Begin("hdfs.replica_add", parentSpan)
	c.tracer.SetAttrInt(sp, "block", int64(id))
	c.tracer.SetAttrInt(sp, "target", int64(target))
	fail := func(err error) {
		if c.tracer.Enabled() {
			c.tracer.SetAttr(sp, "error", err.Error())
			c.tracer.End(sp)
		}
		c.finish(done, err)
	}
	b, ok := c.Block(id)
	if !ok {
		fail(fmt.Errorf("hdfs: no such block %d", id))
		return
	}
	td := c.datanodes[target]
	if td.Down() {
		fail(fmt.Errorf("hdfs: target %s is down", td.Name))
		return
	}
	if c.NodeUnreachable(target) {
		fail(fmt.Errorf("hdfs: target %s is unreachable (partitioned)", td.Name))
		return
	}
	if td.HasBlock(id) {
		fail(fmt.Errorf("hdfs: %s already holds block %d", td.Name, id))
		return
	}
	if td.UncommittedFree() < b.Size {
		fail(fmt.Errorf("hdfs: %s is out of space", td.Name))
		return
	}
	// The transfer starts after the command reaches the datanode on its
	// next heartbeat; the source is chosen then, so freshly landed
	// replicas can serve later transfers. The copy counts from now on, in
	// td's placement load and uncommitted space and in the block's copies
	// in flight, until settleCopy.
	cp := &inboundCopy{id: id, size: b.Size}
	td.inbound = append(td.inbound, cp)
	td.pendingBytes += b.Size
	c.copying[id]++
	c.reindexNode(td)
	c.clock.Schedule(replCommandLatency, func() {
		// A settled copy's target was declared dead (and may be back as a
		// fresh incarnation, which never got the command).
		if !slices.Contains(td.inbound, cp) || td.Down() || c.NodeUnreachable(target) {
			c.settleCopy(td, cp)
			fail(fmt.Errorf("hdfs: target %s died before copy", td.Name))
			return
		}
		if !c.live(id) { // file deleted while the command was in flight
			c.settleCopy(td, cp)
			fail(fmt.Errorf("hdfs: block %d deleted before copy", id))
			return
		}
		if td.HasBlock(id) {
			c.settleCopy(td, cp)
			c.tracer.End(sp)
			c.finish(done, nil)
			return
		}
		src, ok := c.chooseSource(id, target, false)
		if !ok {
			c.settleCopy(td, cp)
			fail(fmt.Errorf("hdfs: no live source for block %d", id))
			return
		}
		sd := c.datanodes[src]
		sd.xferOut++
		td.xferIn++
		c.tracer.SetAttrInt(sp, "source", int64(src))
		path := c.topo.TransferPath(topology.NodeID(src), topology.NodeID(target))
		prev := c.tracer.Push(sp)
		flow := c.fabric.StartFlow(path, b.Size, 0, func(f *netsim.Flow) {
			delete(sd.activeFlows, f)
			sd.xferOut--
			td.xferIn--
			if !c.settleCopy(td, cp) || td.Down() {
				fail(fmt.Errorf("hdfs: target %s died during copy", td.Name))
				return
			}
			if !c.live(id) {
				fail(fmt.Errorf("hdfs: block %d deleted during copy", id))
				return
			}
			c.attachReplica(id, target)
			c.metrics.ReplicasAdded++
			c.metrics.ReplicationMB += float64(b.Size / topology.MB)
			// A decrease or an encode may have lowered the target while
			// the copy was in flight: trim at once, as HDFS's addStoredBlock
			// hands an over-replicated block to processOverReplicatedBlock.
			c.trimExcess(id)
			c.tracer.End(sp)
			c.finish(done, nil)
		})
		c.tracer.Pop(prev)
		cp.flow, cp.src, cp.fail = flow, sd, fail
		// Source death (or a partition cutting the transfer) mid-copy
		// retries from another source.
		sd.activeFlows[flow] = &flowHandle{peer: topology.NodeID(target), abort: func() {
			sd.xferOut--
			td.xferIn--
			c.settleCopy(td, cp)
			c.tracer.SetAttr(sp, "error", "copy aborted; retrying")
			c.tracer.End(sp)
			p := c.tracer.Push(parentSpan)
			c.AddReplica(id, target, done)
			c.tracer.Pop(p)
		}}
	})
}

// inboundCopy is one copy of a block toward a datanode, counted from
// AddReplica's command until it lands or fails, or the datanode dies.
type inboundCopy struct {
	id   BlockID
	size float64
	// The transfer, once it starts: its flow, source and failure path.
	flow *netsim.Flow
	src  *Datanode
	fail func(error)
}

// settleCopy stops counting cp and reports whether it was still counted;
// once d has died (setState) it is a no-op that reports false.
func (c *Cluster) settleCopy(d *Datanode, cp *inboundCopy) bool {
	i := slices.Index(d.inbound, cp)
	if i < 0 {
		return false
	}
	d.inbound = slices.Delete(d.inbound, i, i+1)
	d.pendingBytes -= cp.size
	if c.copying[cp.id]--; c.copying[cp.id] == 0 {
		delete(c.copying, cp.id)
	}
	c.reindexNode(d)
	return true
}

// Deficit is how many more copies block id needs: its target less its
// live replicas and the copies in flight toward it; 0 once deleted. Every
// re-replicator sizes its copies by it.
func (c *Cluster) Deficit(id BlockID) int {
	if !c.live(id) {
		return 0
	}
	return c.shortOf(id, c.ReplTarget(id))
}

// shortOf is Deficit against n replicas.
func (c *Cluster) shortOf(id BlockID, n int) int { return n - len(c.replicas[id]) - c.copying[id] }

// trimExcess removes live replicas of block id above its target, each
// victim picked by the policy's ChooseExcess. A target is at least 1, so
// removal never reaches the last replica.
func (c *Cluster) trimExcess(id BlockID) {
	for len(c.replicas[id]) > c.ReplTarget(id) {
		victim, ok := c.placement.ChooseExcess(c, c.view(id))
		if !ok || c.RemoveReplica(id, victim) != nil {
			return
		}
	}
}

// finish defers a completion callback to a fresh event so callers never
// re-enter cluster state mid-operation.
func (c *Cluster) finish(done func(error), err error) {
	if done == nil {
		return
	}
	c.clock.Schedule(0, func() { done(err) })
}

// RemoveReplica drops the replica of id on target (metadata-only; freeing
// space is instantaneous).
func (c *Cluster) RemoveReplica(id BlockID, target DatanodeID) error {
	if !c.live(id) {
		return fmt.Errorf("hdfs: no such block %d", id)
	}
	if !c.datanodes[target].HasBlock(id) {
		return fmt.Errorf("hdfs: %s holds no replica of block %d", c.datanodes[target].Name, id)
	}
	if len(c.replicas[id]) == 1 {
		return fmt.Errorf("hdfs: refusing to remove the last replica of block %d", id)
	}
	c.detachReplica(id, target)
	c.metrics.ReplicasRemoved++
	return nil
}

// ReplicationMode selects how SetReplication grows a file's replica count
// (the paper's Figure 7 compares the two).
type ReplicationMode int

const (
	// WholeAtOnce launches all needed copies of each block concurrently,
	// straight to the final factor ("increasing the replica directly to the
	// optimal one").
	WholeAtOnce ReplicationMode = iota
	// OneByOne raises the factor a step at a time, waiting for each full
	// round before starting the next.
	OneByOne
)

// String returns the mode's short name: whole or one-by-one.
func (m ReplicationMode) String() string {
	if m == WholeAtOnce {
		return "whole"
	}
	return "one-by-one"
}

// setTarget sets f's target replication and re-derives its data blocks'
// under-replication.
func (c *Cluster) setTarget(f *INode, n int) {
	f.TargetRepl = n
	c.jlog(auditlog.Entry{Op: auditlog.OpSetTarget, File: f.ID(), Target: n})
	c.reassessFile(f)
}

// SetReplication changes a file's replica count to n, adding (in the given
// mode) or removing replicas. done(err) fires when the copies it started
// have landed; copies already in flight toward a block count toward n and
// are not waited for. Placement uses the installed policy; removals
// consult ChooseExcess.
func (c *Cluster) SetReplication(path string, n int, mode ReplicationMode, done func(error)) {
	if c.tracer.Enabled() {
		sp := c.tracer.Begin("hdfs.set_replication", c.tracer.Current())
		c.tracer.SetAttr(sp, "path", path)
		c.tracer.SetAttrInt(sp, "target", int64(n))
		inner := done
		done = func(err error) {
			if err != nil {
				c.tracer.SetAttr(sp, "error", err.Error())
			}
			c.tracer.End(sp)
			if inner != nil {
				inner(err)
			}
		}
		prev := c.tracer.Push(sp)
		defer c.tracer.Pop(prev)
	}
	if err := c.writable(); err != nil {
		c.finish(done, err)
		return
	}
	f := c.files[path]
	if f == nil {
		c.finish(done, fmt.Errorf("hdfs: no such file %q", path))
		return
	}
	if n <= 0 {
		c.finish(done, fmt.Errorf("hdfs: replication must be positive"))
		return
	}
	c.audit.Append(auditlog.Record{
		Time: c.clock.Now(), Allowed: true, UGI: "hadoop",
		IP: "10.0.0.1", Cmd: auditlog.CmdSetRepl, Src: path,
	})
	c.setTarget(f, n)
	// Shed first, metadata-only and immediate: every block above n, not
	// only when the first one is (a damaged first block under-reports the
	// file's replication).
	for _, bid := range f.Blocks {
		c.trimExcess(bid)
	}
	if n > c.ReplicationOf(path) {
		c.grow(f, n, mode, done)
		return
	}
	c.finish(done, nil)
}

// grow raises every block of f to n replicas: in one round of concurrent
// copies (WholeAtOnce), or in one round per step up from the current
// factor, each starting once the last has landed (OneByOne).
func (c *Cluster) grow(f *INode, n int, mode ReplicationMode, done func(error)) {
	// Capture the ambient span (the set_replication span when tracing) so
	// one-by-one rounds launched from completion callbacks still parent
	// their copies correctly.
	ambient := c.tracer.Current()
	var round func(target int)
	round = func(target int) {
		prev := c.tracer.Push(ambient)
		defer c.tracer.Pop(prev)
		outstanding, launched := 0, false
		var firstErr error
		next := func(err error) {
			switch {
			case err == nil && target < n:
				round(target + 1)
			case done != nil:
				done(err)
			}
		}
		complete := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if outstanding--; outstanding == 0 && launched {
				next(firstErr)
			}
		}
		for _, bid := range f.Blocks {
			need := c.shortOf(bid, target)
			if need <= 0 {
				continue
			}
			targets := c.placement.ChooseTargets(nil, c, c.view(bid), need, -1, nil)
			if len(targets) < need && firstErr == nil {
				firstErr = fmt.Errorf("hdfs: only %d of %d targets for block %d", len(targets), need, bid)
			}
			for _, t := range targets {
				outstanding++
				c.AddReplica(bid, t, complete)
			}
		}
		launched = true
		if outstanding == 0 {
			c.finish(next, firstErr)
		}
	}
	if mode == OneByOne {
		round(c.Replication(f) + 1)
	} else {
		round(n)
	}
}

// UnderReplicated lists blocks whose live replica count is below their
// file's target (parity blocks target 1 replica). The set is maintained
// incrementally at every replica and target mutation, so this costs
// O(degraded blocks), not O(block space).
//
// Ordering contract: the result is always sorted ascending by BlockID.
// The repair pipeline's priority queue admits blocks in (tier, BlockID)
// order, so this ordering is load-bearing for determinism — two same-seed
// runs must enumerate identical sequences. The sort below guarantees that
// regardless of underSet's map iteration order; a regression test pins it.
func (c *Cluster) UnderReplicated() []BlockID {
	out := make([]BlockID, 0, len(c.underSet))
	for bid := range c.underSet {
		out = append(out, bid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
