package hdfs

import (
	"fmt"
	"sort"
	"time"

	"erms/internal/auditlog"
	"erms/internal/netsim"
	"erms/internal/sim"
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
	// replicas can serve later transfers.
	td.pendingAdds++
	td.pendingBytes += b.Size
	c.reindexNode(td)
	settled := false
	settle := func() {
		if !settled {
			settled = true
			td.pendingAdds--
			td.pendingBytes -= b.Size
			c.reindexNode(td)
		}
	}
	c.clock.Schedule(c.cfg.ReplCommandLatency, func() {
		if td.Down() || c.NodeUnreachable(target) {
			settle()
			fail(fmt.Errorf("hdfs: target %s died before copy", td.Name))
			return
		}
		if !c.live(id) { // file deleted while the command was in flight
			settle()
			fail(fmt.Errorf("hdfs: block %d deleted before copy", id))
			return
		}
		if td.HasBlock(id) {
			settle()
			c.tracer.End(sp)
			c.finish(done, nil)
			return
		}
		src, ok := c.chooseSource(id, target, false)
		if !ok {
			settle()
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
			settle()
			if td.Down() {
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
			c.tracer.End(sp)
			c.finish(done, nil)
		})
		c.tracer.Pop(prev)
		// Source death (or a partition cutting the transfer) mid-copy
		// retries from another source.
		sd.activeFlows[flow] = &flowHandle{peer: topology.NodeID(target), abort: func() {
			sd.xferOut--
			td.xferIn--
			settle()
			c.tracer.SetAttr(sp, "error", "copy aborted; retrying")
			c.tracer.End(sp)
			p := c.tracer.Push(parentSpan)
			c.AddReplica(id, target, done)
			c.tracer.Pop(p)
		}}
	})
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
	c.jlog(auditlog.Entry{Op: auditlog.OpSetTarget, File: f.id, Target: n})
	c.reassessFile(f)
}

// SetReplication changes a file's replica count to n, adding (in the given
// mode) or removing replicas. done(err) fires when the file reaches the
// target. Placement uses the installed policy; removals consult
// ChooseExcess.
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
	cur := c.ReplicationOf(path)
	switch {
	case n == cur:
		c.finish(done, nil)
	case n < cur:
		// Shrink: metadata-only, immediate.
		var firstErr error
		for _, bid := range f.Blocks {
			for len(c.replicas[bid]) > n {
				victim, ok := c.placement.ChooseExcess(c, c.view(bid))
				if !ok {
					break
				}
				if err := c.RemoveReplica(bid, victim); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					break
				}
			}
		}
		c.finish(done, firstErr)
	default:
		c.grow(f, n, mode, done)
	}
}

// grow raises every block of f to n replicas.
func (c *Cluster) grow(f *INode, n int, mode ReplicationMode, done func(error)) {
	// Capture the ambient span (the set_replication span when tracing) so
	// one-by-one rounds launched from completion callbacks still parent
	// their copies correctly.
	ambient := c.tracer.Current()
	var step func(round int)
	copyRound := func(target int, next func(error)) {
		prev := c.tracer.Push(ambient)
		defer c.tracer.Pop(prev)
		// One round: bring every block up to `target` replicas, all copies
		// in flight concurrently.
		outstanding := 0
		var firstErr error
		finished := false
		complete := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			outstanding--
			if outstanding == 0 && finished {
				next(firstErr)
			}
		}
		for _, bid := range f.Blocks {
			need := target - len(c.replicas[bid])
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
		finished = true
		if outstanding == 0 {
			c.finish(next, firstErr)
		}
	}
	switch mode {
	case WholeAtOnce:
		copyRound(n, func(err error) {
			if done != nil {
				done(err)
			}
		})
	case OneByOne:
		step = func(target int) {
			if target > n {
				if done != nil {
					done(nil)
				}
				return
			}
			copyRound(target, func(err error) {
				if err != nil {
					if done != nil {
						done(err)
					}
					return
				}
				step(target + 1)
			})
		}
		step(c.ReplicationOf(f.Path) + 1)
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

// StartReplicationMonitor runs a namenode re-replication scan every period:
// under-replicated blocks get one new replica per scan (vanilla HDFS
// behaviour; ERMS routes the same work through Condor jobs instead).
// Returns a stop function.
func (c *Cluster) StartReplicationMonitor(period time.Duration) func() {
	inFlight := map[BlockID]bool{}
	t := sim.NewTicker(c.clock, period, func(time.Duration) {
		for _, bid := range c.UnderReplicated() {
			if inFlight[bid] {
				continue
			}
			if len(c.replicas[bid]) == 0 {
				continue // lost block; erasure recovery may still help
			}
			targets := c.placement.ChooseTargets(nil, c, c.view(bid), 1, -1, nil)
			if len(targets) == 0 {
				continue
			}
			inFlight[bid] = true
			bid := bid
			c.AddReplica(bid, targets[0], func(error) { delete(inFlight, bid) })
		}
	})
	return t.Stop
}
