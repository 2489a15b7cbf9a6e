package core

import (
	"maps"
	"sort"

	"erms/internal/hdfs"
	"erms/internal/topology"
)

// Placement implements the paper's Algorithm 1 as a pluggable HDFS policy:
//
//   - erasure parity blocks go to the active node holding the fewest
//     blocks of the same file (so losing one node cannot take the parity
//     and much of the data together);
//   - blocks below the default factor use the stock rack-aware policy;
//   - extra replicas of hot data (r >= r_D) go to standby-pool nodes that
//     do not yet hold the block, preferring nodes in the same rack as an
//     existing replica, then any active node;
//   - deletions drain standby-pool nodes first, so shrinking never
//     requires rebalancing among the always-on nodes.
type Placement struct {
	base *hdfs.DefaultPolicy
	// pool is the standby pool (nodes ERMS commissions on demand and later
	// powers back down), fixed when the manager is built; it doubles as the
	// exclusion set that keeps base replicas off pooled nodes.
	pool map[hdfs.DatanodeID]bool
	// scratch is excludePool's reused merge of the pool and a caller's set.
	scratch map[hdfs.DatanodeID]bool
}

// NewPlacement builds the ERMS policy; pool is the set of standby-pool
// nodes, which must not change afterwards (nil means no pool, degrading
// gracefully to default-like behaviour for extras).
func NewPlacement(pool map[hdfs.DatanodeID]bool) *Placement {
	return &Placement{base: hdfs.NewDefaultPolicy(), pool: pool, scratch: map[hdfs.DatanodeID]bool{}}
}

// Name implements hdfs.Policy.
func (p *Placement) Name() string { return "erms-algorithm1" }

// ChooseTargets implements hdfs.Policy.
func (p *Placement) ChooseTargets(c *hdfs.Cluster, b *hdfs.Block, count int, writer hdfs.DatanodeID, exclude map[hdfs.DatanodeID]bool) []hdfs.DatanodeID {
	if b.Parity {
		return p.parityTargets(c, b, count, exclude)
	}
	cur := len(c.Replicas(b.ID))
	rD := c.Config().DefaultReplication
	if cur < rD {
		// Below default factor: stock rack-aware placement, but never put
		// base replicas on the standby pool — pooled nodes may power off.
		need := rD - cur
		if need > count {
			need = count
		}
		base := p.base.ChooseTargets(c, b, need, writer, p.excludePool(exclude))
		if len(base) < need {
			// Pool nodes as a last resort (tiny active set).
			more := p.base.ChooseTargets(c, b, need-len(base), writer, merge(exclude, asSet(base)))
			base = append(base, more...)
		}
		if count > need {
			more := p.extraTargets(c, b, count-need, merge(exclude, asSet(base)))
			base = append(base, more...)
		}
		return base
	}
	return p.extraTargets(c, b, count, exclude)
}

// extraTargets places extra (hot-data) replicas: standby-pool nodes first,
// preferring same-rack-as-existing-replica, then fewest blocks; falling
// back to active non-pool nodes.
func (p *Placement) extraTargets(c *hdfs.Cluster, b *hdfs.Block, count int, exclude map[hdfs.DatanodeID]bool) []hdfs.DatanodeID {
	type cand struct {
		id   hdfs.DatanodeID
		tier int // 0: pool+same rack, 1: pool, 2: active non-pool
		load int
		rack int
	}
	var cands []cand
	rackCount := map[int]int{} // replicas (existing + chosen) per rack
	for _, r := range c.Replicas(b.ID) {
		rackCount[c.Topology().Rack(topology.NodeID(r))]++
	}
	c.ScanEligible(b, exclude, func(id hdfs.DatanodeID) bool {
		rack := c.Topology().Rack(topology.NodeID(id))
		tier := 2
		if p.pool[id] {
			tier = 1
			if rackCount[rack] > 0 { // no pick made yet: existing replicas only
				tier = 0
			}
		}
		cands = append(cands, cand{id: id, tier: tier, load: c.Datanode(id).PlacementLoad(), rack: rack})
		return false
	})
	// Greedy pick: prefer pool nodes (same-rack first for cheap transfer),
	// but balance replicas across racks so no single rack uplink carries a
	// disproportionate share of the hot file's read traffic.
	var out []hdfs.DatanodeID
	used := map[hdfs.DatanodeID]bool{}
	for len(out) < count {
		bestIdx := -1
		for i, cd := range cands {
			if used[cd.id] {
				continue
			}
			if bestIdx < 0 {
				bestIdx = i
				continue
			}
			b2 := cands[bestIdx]
			ci := [4]int{cd.tier, rackCount[cd.rack], cd.load, int(cd.id)}
			cb := [4]int{b2.tier, rackCount[b2.rack], b2.load, int(b2.id)}
			for k := range ci {
				if ci[k] != cb[k] {
					if ci[k] < cb[k] {
						bestIdx = i
					}
					break
				}
			}
		}
		if bestIdx < 0 {
			break
		}
		chosen := cands[bestIdx]
		used[chosen.id] = true
		rackCount[chosen.rack]++
		out = append(out, chosen.id)
	}
	return out
}

// parityTargets: "select the active node that contains the minimum number
// of data block of the same data."
func (p *Placement) parityTargets(c *hdfs.Cluster, b *hdfs.Block, count int, exclude map[hdfs.DatanodeID]bool) []hdfs.DatanodeID {
	f := c.File(b.File)
	blocksOf := map[hdfs.DatanodeID]int{}
	if f != nil {
		for _, ids := range [][]hdfs.BlockID{f.Blocks, f.Parity} {
			for _, bid := range ids {
				for _, r := range c.Replicas(bid) {
					blocksOf[r]++
				}
			}
		}
	}
	type cand struct {
		id     hdfs.DatanodeID
		ofFile int
		load   int
	}
	var cands []cand
	c.ScanEligible(b, exclude, func(id hdfs.DatanodeID) bool {
		if !p.pool[id] {
			cands = append(cands, cand{id: id, ofFile: blocksOf[id], load: c.Datanode(id).PlacementLoad()})
		}
		return false
	})
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].ofFile != cands[j].ofFile {
			return cands[i].ofFile < cands[j].ofFile
		}
		if cands[i].load != cands[j].load {
			return cands[i].load < cands[j].load
		}
		return cands[i].id < cands[j].id
	})
	var out []hdfs.DatanodeID
	for _, cd := range cands {
		if len(out) == count {
			break
		}
		out = append(out, cd.id)
		blocksOf[cd.id]++ // keep later parities spreading
	}
	return out
}

// ChooseExcess implements hdfs.Policy: "ERMS could prefer to delete them
// from standby nodes" — pooled replicas drain first (most-loaded pooled
// node first so nodes empty out and can power down), then the default
// policy picks among the always-on nodes.
func (p *Placement) ChooseExcess(c *hdfs.Cluster, b *hdfs.Block) (hdfs.DatanodeID, bool) {
	var best hdfs.DatanodeID = -1
	bestLoad := -1
	for _, r := range c.Replicas(b.ID) {
		if !p.pool[r] {
			continue
		}
		if load := c.Datanode(r).NumBlocks(); load > bestLoad ||
			(load == bestLoad && r > best) {
			best, bestLoad = r, load
		}
	}
	if best >= 0 {
		return best, true
	}
	return p.base.ChooseExcess(c, b)
}

// ChooseKeeper implements hdfs.KeeperChooser: when a cold file drops to
// one replica per block, keep it on an always-on node (pool nodes want to
// power down) hosting the fewest stripe members, so the RS code retains
// its full failure tolerance and the standby pool still drains.
func (p *Placement) ChooseKeeper(c *hdfs.Cluster, b *hdfs.Block, stripeLoad map[hdfs.DatanodeID]int) (hdfs.DatanodeID, bool) {
	var best hdfs.DatanodeID = -1
	bestKey := [4]int{1 << 30, 1 << 30, 1 << 30, 1 << 30}
	for _, r := range c.Replicas(b.ID) {
		d := c.Datanode(r)
		if d.State == hdfs.StateDown || d.Crashed() || d.CorruptBlock(b.ID) {
			continue
		}
		poolPenalty := 0
		if p.pool[r] {
			poolPenalty = 1
		}
		key := [4]int{poolPenalty, stripeLoad[r], d.PlacementLoad(), int(r)}
		if best < 0 || less4(key, bestKey) {
			best, bestKey = r, key
		}
	}
	return best, best >= 0
}

func less4(a, b [4]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// excludePool returns exclude plus every pooled node. The result is only
// read (DefaultPolicy copies it before adding its picks): with nothing to
// add to it the pool set itself serves, else the two merge into scratch.
func (p *Placement) excludePool(exclude map[hdfs.DatanodeID]bool) map[hdfs.DatanodeID]bool {
	if len(exclude) == 0 {
		return p.pool
	}
	clear(p.scratch)
	maps.Copy(p.scratch, exclude)
	maps.Copy(p.scratch, p.pool)
	return p.scratch
}

func asSet(ids []hdfs.DatanodeID) map[hdfs.DatanodeID]bool {
	m := map[hdfs.DatanodeID]bool{}
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func merge(a, b map[hdfs.DatanodeID]bool) map[hdfs.DatanodeID]bool {
	out := map[hdfs.DatanodeID]bool{}
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}
