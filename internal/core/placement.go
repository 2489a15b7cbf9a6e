package core

import (
	"cmp"
	"slices"

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
	pool hdfs.NodeSet
	// Scratch reused by every call: excl is the exclusion set handed on to
	// the base policy and extraTargets, counts a per-rack or per-node
	// tally, cands the candidate list.
	excl   hdfs.NodeSet
	counts []int
	cands  []cand
}

// cand is one placement candidate: rank is the tier of an extra replica
// (0 pool + same rack, 1 pool, 2 active non-pool) or a parity target's
// count of the file's blocks on the node.
type cand struct {
	id               hdfs.DatanodeID
	rank, rack, load int
	used             bool
}

// NewPlacement builds the ERMS policy; pool is the set of standby-pool
// nodes, which must not change afterwards (nil means no pool, degrading
// gracefully to default-like behaviour for extras).
func NewPlacement(pool map[hdfs.DatanodeID]bool) *Placement {
	p := &Placement{base: hdfs.NewDefaultPolicy()}
	for id, in := range pool {
		if in {
			p.pool.Add(id)
		}
	}
	return p
}

// Name implements hdfs.Policy.
func (p *Placement) Name() string { return "erms-algorithm1" }

// ChooseTargets implements hdfs.Policy.
func (p *Placement) ChooseTargets(dst []hdfs.DatanodeID, c *hdfs.Cluster, b hdfs.Block, count int, writer hdfs.DatanodeID, exclude *hdfs.NodeSet) []hdfs.DatanodeID {
	if b.Parity {
		return p.parityTargets(dst, c, b, count, exclude)
	}
	cur := len(c.Replicas(b.ID))
	rD := hdfs.DefaultReplication
	if cur >= rD {
		return p.extraTargets(dst, c, b, count, exclude)
	}
	// Below default factor: stock rack-aware placement, but never put
	// base replicas on the standby pool — pooled nodes may power off.
	need := min(rD-cur, count)
	start := len(dst)
	dst = p.base.ChooseTargets(dst, c, b, need, writer, p.exclusion(exclude, &p.pool, nil))
	if got := len(dst) - start; got < need {
		// Pool nodes as a last resort (tiny active set).
		dst = p.base.ChooseTargets(dst, c, b, need-got, writer, p.exclusion(exclude, nil, dst[start:]))
	}
	if count > need {
		dst = p.extraTargets(dst, c, b, count-need, p.exclusion(exclude, nil, dst[start:]))
	}
	return dst
}

// exclusion refills p.excl with exclude ∪ also ∪ picks, word-wise ORs into
// the reused set, and returns it.
func (p *Placement) exclusion(exclude, also *hdfs.NodeSet, picks []hdfs.DatanodeID) *hdfs.NodeSet {
	p.excl.Clear()
	p.excl.Union(exclude)
	p.excl.Union(also)
	for _, id := range picks {
		p.excl.Add(id)
	}
	return &p.excl
}

// tally returns p.counts resized to n and zeroed.
func (p *Placement) tally(n int) []int {
	p.counts = slices.Grow(p.counts[:0], n)[:n]
	clear(p.counts)
	return p.counts
}

// extraTargets places extra (hot-data) replicas: standby-pool nodes first,
// preferring same-rack-as-existing-replica, then fewest blocks; falling
// back to active non-pool nodes.
func (p *Placement) extraTargets(dst []hdfs.DatanodeID, c *hdfs.Cluster, b hdfs.Block, count int, exclude *hdfs.NodeSet) []hdfs.DatanodeID {
	topo := c.Topology()
	rackCount := p.tally(topo.NumRacks()) // replicas (existing + chosen) per rack
	for _, r := range c.Replicas(b.ID) {
		rackCount[topo.Rack(topology.NodeID(r))]++
	}
	cands := p.cands[:0]
	c.ScanEligible(b, exclude, func(id hdfs.DatanodeID) bool {
		rack := topo.Rack(topology.NodeID(id))
		tier := 2
		if p.pool.Has(id) {
			tier = 1
			if rackCount[rack] > 0 { // no pick made yet: existing replicas only
				tier = 0
			}
		}
		cands = append(cands, cand{id: id, rank: tier, rack: rack, load: c.Datanode(id).PlacementLoad()})
		return false
	})
	p.cands = cands
	// Greedy pick: prefer pool nodes (same-rack first for cheap transfer),
	// but balance replicas across racks so no single rack uplink carries a
	// disproportionate share of the hot file's read traffic.
	for range count {
		best := -1
		for i, cd := range cands {
			if cd.used {
				continue
			}
			if best < 0 || less4([4]int{cd.rank, rackCount[cd.rack], cd.load, int(cd.id)},
				[4]int{cands[best].rank, rackCount[cands[best].rack], cands[best].load, int(cands[best].id)}) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		cands[best].used = true
		rackCount[cands[best].rack]++
		dst = append(dst, cands[best].id)
	}
	return dst
}

// parityTargets: "select the active node that contains the minimum number
// of data block of the same data."
func (p *Placement) parityTargets(dst []hdfs.DatanodeID, c *hdfs.Cluster, b hdfs.Block, count int, exclude *hdfs.NodeSet) []hdfs.DatanodeID {
	blocksOf := p.tally(len(c.Datanodes()))
	if f := c.File(b.File); f != nil {
		for _, ids := range [2][]hdfs.BlockID{f.Blocks, f.Parity()} {
			for _, bid := range ids {
				for _, r := range c.Replicas(bid) {
					blocksOf[r]++
				}
			}
		}
	}
	cands := p.cands[:0]
	c.ScanEligible(b, exclude, func(id hdfs.DatanodeID) bool {
		if !p.pool.Has(id) {
			cands = append(cands, cand{id: id, rank: blocksOf[id], load: c.Datanode(id).PlacementLoad()})
		}
		return false
	})
	p.cands = cands
	slices.SortFunc(cands, func(x, y cand) int {
		return cmp.Or(cmp.Compare(x.rank, y.rank), cmp.Compare(x.load, y.load), cmp.Compare(x.id, y.id))
	})
	start := len(dst)
	for _, cd := range cands {
		if len(dst)-start == count {
			break
		}
		dst = append(dst, cd.id)
	}
	return dst
}

// ChooseExcess implements hdfs.Policy: "ERMS could prefer to delete them
// from standby nodes" — pooled replicas drain first (most-loaded pooled
// node first so nodes empty out and can power down), then the default
// policy picks among the always-on nodes.
func (p *Placement) ChooseExcess(c *hdfs.Cluster, b hdfs.Block) (hdfs.DatanodeID, bool) {
	var best hdfs.DatanodeID = -1
	bestLoad := -1
	for _, r := range c.Replicas(b.ID) {
		if !p.pool.Has(r) {
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
func (p *Placement) ChooseKeeper(c *hdfs.Cluster, b hdfs.Block, stripeLoad map[hdfs.DatanodeID]int) (hdfs.DatanodeID, bool) {
	var best hdfs.DatanodeID = -1
	bestKey := [4]int{1 << 30, 1 << 30, 1 << 30, 1 << 30}
	for _, r := range c.Replicas(b.ID) {
		d := c.Datanode(r)
		if d.Down() || d.CorruptBlock(b.ID) {
			continue
		}
		poolPenalty := 0
		if p.pool.Has(r) {
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
