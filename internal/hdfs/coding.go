package hdfs

import (
	"fmt"

	"erms/internal/auditlog"
	"erms/internal/netsim"
	"erms/internal/topology"
)

// EncodeFile erasure-codes a cold file: its data blocks are grouped into
// stripes of up to k, each stripe gains m parity blocks (placed by the
// installed policy, which for ERMS picks the active node holding the
// fewest blocks of the file), and once all parities land the file's data
// replication drops to one ("a replication factor of one and four coding
// parities"). The encode streams every data block to an encoder node and
// the parities from it to their targets, so it costs real cluster
// bandwidth; done(err) fires when the file is fully converted.
func (c *Cluster) EncodeFile(path string, k, m int, done func(error)) {
	if c.tracer.Enabled() {
		sp := c.tracer.Begin("hdfs.encode", c.tracer.Current())
		c.tracer.SetAttr(sp, "path", path)
		c.tracer.SetAttrInt(sp, "k", int64(k))
		c.tracer.SetAttrInt(sp, "m", int64(m))
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
	if f.Encoded {
		c.finish(done, fmt.Errorf("hdfs: %q is already encoded", path))
		return
	}
	if k <= 0 || m <= 0 {
		c.finish(done, fmt.Errorf("hdfs: invalid stripe RS(%d,%d)", k, m))
		return
	}
	// A Reed–Solomon code over GF(2^8) has at most 255 shards per stripe.
	if k+m > 255 {
		c.finish(done, fmt.Errorf("hdfs: RS(%d,%d) exceeds GF(256) capacity", k, m))
		return
	}
	// A retry of a failed attempt drops that attempt's parity first, so
	// parity j of stripe s is again the file's (s·m+j)-th parity block,
	// the position a restore numbers it by.
	if len(f.Parity()) > 0 {
		c.clearGeometry(f)
	}
	c.setGeometry(f, k, m)
	stripes := (len(f.Blocks) + k - 1) / k
	outstanding := 0
	var firstErr error
	launched := false
	complete := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		outstanding--
		if outstanding == 0 && launched {
			c.finishEncode(f, firstErr, done)
		}
	}
	var exclude NodeSet
	var targets []DatanodeID
	for s := 0; s < stripes; s++ {
		lo := s * k
		hi := lo + k
		if hi > len(f.Blocks) {
			hi = len(f.Blocks)
		}
		stripe := f.Blocks[lo:hi]
		// Parities of one stripe must land on distinct nodes (they are
		// shards of the same codeword); targets chosen in this burst are
		// excluded for the stripe's remaining parities.
		exclude.Clear()
		for p := 0; p < m; p++ {
			pb := c.view(c.addBlock(f, ^int32(s*m+p)))
			targets = c.placement.ChooseTargets(targets[:0], c, pb, 1, -1, &exclude)
			if len(targets) == 0 {
				if firstErr == nil {
					firstErr = fmt.Errorf("hdfs: no target for parity of %q", path)
				}
				continue
			}
			exclude.Add(targets[0])
			outstanding++
			c.writeParity(stripe, pb, targets[0], complete)
		}
	}
	launched = true
	if outstanding == 0 {
		c.finish(done, firstErr)
	}
}

// writeParity streams the stripe's data blocks to the parity target (the
// encoder runs there) and accounts the parity write on its disk.
func (c *Cluster) writeParity(stripe []BlockID, pb Block, target DatanodeID, done func(error)) {
	td := c.datanodes[target]
	if td.UncommittedFree() < pb.Size {
		c.finish(done, fmt.Errorf("hdfs: %s out of space for parity", td.Name))
		return
	}
	if len(stripe) == 0 {
		c.finish(done, fmt.Errorf("hdfs: empty stripe"))
		return
	}
	c.gather(stripe, target, fmt.Sprintf("encode of %q", pb.File), func(err error) {
		c.commitParity(pb, target, err, done)
	})
}

// gather streams each block in ids from its least-loaded clean replica to
// target — an encode's or a rebuild's reads, what names which — and calls
// commit with the first error once every stream has landed or failed.
func (c *Cluster) gather(ids []BlockID, target DatanodeID, what string, commit func(error)) {
	remaining := len(ids)
	var firstErr error
	settle := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
		if remaining--; remaining == 0 {
			commit(firstErr)
		}
	}
	for _, bid := range ids {
		src, ok := c.chooseSource(bid, target, true)
		if !ok {
			settle(fmt.Errorf("hdfs: no source for block %d during %s", bid, what))
			continue
		}
		sd := c.datanodes[src]
		path := c.topo.ReadPath(topology.NodeID(src), topology.NodeID(target))
		flow := c.fabric.StartFlow(path, c.size(bid), 0, func(f *netsim.Flow) {
			delete(sd.activeFlows, f)
			settle(nil)
		})
		sd.activeFlows[flow] = &flowHandle{peer: topology.NodeID(target), abort: func() {
			settle(fmt.Errorf("hdfs: source died during %s", what))
		}}
	}
}

func (c *Cluster) commitParity(pb Block, target DatanodeID, err error, done func(error)) {
	if err != nil {
		c.finish(done, err)
		return
	}
	td := c.datanodes[target]
	if td.Down() {
		c.finish(done, fmt.Errorf("hdfs: parity target %s died", td.Name))
		return
	}
	// Local parity write: consumes the encoder's disk for one block.
	flow := c.fabric.StartFlow([]topology.LinkID{c.topo.Node(topology.NodeID(target)).Disk},
		pb.Size, 0, func(*netsim.Flow) {
			if !c.live(pb.ID) {
				c.finish(done, fmt.Errorf("hdfs: parity block %d deleted during write", pb.ID))
				return
			}
			c.attachReplica(pb.ID, target)
			c.finish(done, nil)
		})
	_ = flow
}

// KeeperChooser is an optional placement-policy extension: when a file is
// encoded down to one replica per block, ChooseKeeper picks which replica
// survives. stripeLoad counts stripe members (kept data + parity) already
// resident per node; keeping members on distinct nodes preserves the
// code's full failure tolerance.
type KeeperChooser interface {
	ChooseKeeper(c *Cluster, b Block, stripeLoad map[DatanodeID]int) (DatanodeID, bool)
}

// finishEncode drops data replication to one replica per block and marks
// the file encoded. The surviving replica of each block is chosen
// stripe-aware: RS(k,m) only tolerates m lost *shards*, so two stripe
// members sharing a disk would turn one node failure into two shard
// losses.
func (c *Cluster) finishEncode(f *INode, err error, done func(error)) {
	if err != nil {
		c.finish(done, err)
		return
	}
	k, _ := f.Geometry()
	if k <= 0 {
		k = len(f.Blocks)
	}
	keeperPolicy, _ := c.placement.(KeeperChooser)
	stripes := (len(f.Blocks) + k - 1) / k
	for s := 0; s < stripes; s++ {
		lo, hi := s*k, (s+1)*k
		if hi > len(f.Blocks) {
			hi = len(f.Blocks)
		}
		// Seed the per-node stripe census with this stripe's parities.
		load := map[DatanodeID]int{}
		for _, pid := range f.Parity() {
			if c.view(pid).Group != s {
				continue
			}
			for _, r := range c.replicas[pid] {
				load[r]++
			}
		}
		for _, bid := range f.Blocks[lo:hi] {
			b := c.view(bid)
			var keeper DatanodeID
			ok := false
			if keeperPolicy != nil {
				keeper, ok = keeperPolicy.ChooseKeeper(c, b, load)
			}
			if !ok {
				keeper, ok = c.defaultKeeper(b, load)
			}
			if !ok {
				continue
			}
			for _, dn := range append([]DatanodeID(nil), c.replicas[bid]...) {
				if dn == keeper {
					continue
				}
				if e := c.RemoveReplica(bid, dn); e != nil {
					break
				}
			}
			load[keeper]++
		}
	}
	c.setEncoded(f, true)
	c.metrics.FilesEncoded++
	c.finish(done, nil)
}

// defaultKeeper keeps the replica whose node hosts the fewest stripe
// members (then the lightest node, then the smallest ID).
func (c *Cluster) defaultKeeper(b Block, stripeLoad map[DatanodeID]int) (DatanodeID, bool) {
	var best DatanodeID = -1
	bestKey := [3]int{1 << 30, 1 << 30, 1 << 30}
	for _, r := range c.replicas[b.ID] {
		d := c.datanodes[r]
		if d.Down() || d.corrupt[b.ID] {
			continue
		}
		key := [3]int{stripeLoad[r], d.PlacementLoad(), int(r)}
		if best < 0 || less3(key, bestKey) {
			best, bestKey = r, key
		}
	}
	return best, best >= 0
}

// stripeOf returns the data and parity block IDs of the stripe containing
// block bid (data or parity). Parity blocks carry their stripe in Group;
// data blocks derive it from their index.
func (c *Cluster) stripeOf(f *INode, bid BlockID) (data, parity []BlockID, ok bool) {
	b, live := c.Block(bid)
	if !live {
		return nil, nil, false
	}
	k, _ := f.Geometry()
	if len(f.Parity()) == 0 || len(f.Blocks) == 0 || k <= 0 {
		return nil, nil, false
	}
	group := b.Group
	if !b.Parity {
		group = b.Index / k
	}
	lo, hi := group*k, (group+1)*k
	if hi > len(f.Blocks) {
		hi = len(f.Blocks)
	}
	if lo >= hi {
		return nil, nil, false
	}
	data = f.Blocks[lo:hi]
	for _, pid := range f.Parity() {
		if c.view(pid).Group == group {
			parity = append(parity, pid)
		}
	}
	return data, parity, true
}

// ReconstructBlock rebuilds a lost data block of an encoded file from its
// surviving stripe members, placing the rebuilt block on a policy-chosen
// node. done(err) fires when the block is live again.
func (c *Cluster) ReconstructBlock(bid BlockID, done func(error)) {
	b, ok := c.Block(bid)
	if !ok {
		c.finish(done, fmt.Errorf("hdfs: no such block %d", bid))
		return
	}
	f := c.owner(bid)
	if f == nil || !f.Encoded {
		c.finish(done, fmt.Errorf("hdfs: block %d is not erasure-protected", bid))
		return
	}
	if len(c.replicas[bid]) > 0 {
		c.finish(done, nil) // nothing lost
		return
	}
	data, parity, ok := c.stripeOf(f, bid)
	if !ok {
		c.finish(done, fmt.Errorf("hdfs: no stripe for block %d", bid))
		return
	}
	// Need k live members of the stripe (any mix of data+parity), each
	// with at least one clean, servable replica.
	k := len(data)
	var sources []BlockID
	for _, cand := range append(append([]BlockID{}, data...), parity...) {
		if cand == bid {
			continue
		}
		if c.hasCleanReplica(cand) {
			sources = append(sources, cand)
		}
		if len(sources) == k {
			break
		}
	}
	if len(sources) < k {
		c.finish(done, fmt.Errorf("hdfs: stripe of block %d has only %d of %d members live",
			bid, len(sources), k))
		return
	}
	targets := c.placement.ChooseTargets(nil, c, b, 1, -1, nil)
	if len(targets) == 0 {
		c.finish(done, fmt.Errorf("hdfs: no target to rebuild block %d", bid))
		return
	}
	target := targets[0]
	// Stream the k sources to the rebuild target, then a local disk write.
	c.gather(sources, target, "rebuild", func(err error) { c.commitRebuild(b, target, err, done) })
}

func (c *Cluster) commitRebuild(b Block, target DatanodeID, err error, done func(error)) {
	if err != nil {
		c.finish(done, err)
		return
	}
	td := c.datanodes[target]
	if td.Down() || td.UncommittedFree() < b.Size {
		c.finish(done, fmt.Errorf("hdfs: rebuild target %s unusable", td.Name))
		return
	}
	c.fabric.StartFlow([]topology.LinkID{c.topo.Node(topology.NodeID(target)).Disk},
		b.Size, 0, func(*netsim.Flow) {
			if !c.live(b.ID) {
				c.finish(done, fmt.Errorf("hdfs: block %d deleted during rebuild", b.ID))
				return
			}
			c.attachReplica(b.ID, target)
			c.metrics.BlocksRebuilt++
			c.finish(done, nil)
		})
}

// hasCleanReplica reports whether at least one replica of the block is on
// a live, non-crashed node and not flagged corrupt.
func (c *Cluster) hasCleanReplica(id BlockID) bool {
	for _, dn := range c.replicas[id] {
		d := c.datanodes[dn]
		if !d.Down() && !d.corrupt[id] {
			return true
		}
	}
	return false
}

// CancelEncoding rolls back a failed, partial encode: parity blocks are
// dropped and the stripe geometry cleared, leaving the file plain. It is
// a no-op on files whose encode completed (Encoded is set).
func (c *Cluster) CancelEncoding(path string) error {
	f := c.files[path]
	if f == nil {
		return fmt.Errorf("hdfs: no such file %q", path)
	}
	if f.Encoded {
		return fmt.Errorf("hdfs: %q is fully encoded; use DecodeFile", path)
	}
	c.clearGeometry(f)
	return nil
}

// setGeometry records f's stripe geometry, RS(k, m), as an encode starts,
// giving f its Stripe if it has none.
func (c *Cluster) setGeometry(f *INode, k, m int) {
	if f.stripe == nil {
		f.stripe = new(Stripe)
	}
	f.stripe.K, f.stripe.M = k, m
	c.jlog(auditlog.Entry{Op: auditlog.OpEncodeGeom, File: f.ID(), K: k, M: m})
}

// clearGeometry drops f's parity blocks and its Stripe, leaving the file
// plain.
func (c *Cluster) clearGeometry(f *INode) {
	for _, pid := range f.Parity() {
		c.dropBlock(pid)
	}
	f.stripe = nil
	c.jlog(auditlog.Entry{Op: auditlog.OpClearGeom, File: f.ID()})
}

// setEncoded marks f encoded (its parity complete) or not (a decode has
// begun), and re-derives its data blocks' under-replication, whose target
// the flag moves.
func (c *Cluster) setEncoded(f *INode, encoded bool) {
	f.Encoded = encoded
	op := auditlog.OpDecodeStart
	if encoded {
		op = auditlog.OpEncodeDone
	}
	c.jlog(auditlog.Entry{Op: op, File: f.ID()})
	c.reassessFile(f)
}

// DecodeFile restores an encoded file to plain replication n: every block
// is re-replicated to n and the parities are dropped.
func (c *Cluster) DecodeFile(path string, n int, done func(error)) {
	if c.tracer.Enabled() {
		sp := c.tracer.Begin("hdfs.decode", c.tracer.Current())
		c.tracer.SetAttr(sp, "path", path)
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
	if !f.Encoded {
		c.finish(done, fmt.Errorf("hdfs: %q is not encoded", path))
		return
	}
	c.setEncoded(f, false)
	for _, pid := range f.Parity() {
		c.dropBlock(pid)
	}
	if f.stripe != nil {
		f.stripe.Parity = nil // the geometry stays, as a checkpoint records it
	}
	c.SetReplication(path, n, WholeAtOnce, done)
}
