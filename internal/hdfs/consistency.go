package hdfs

import (
	"fmt"
	"sort"
)

// ConsistencyErrors cross-checks every incremental index the cluster
// maintains against a from-scratch recomputation of the same state. It is
// the safety net for the O(1) bookkeeping added for the 1,000-datanode
// scale work: any drift between an index and the ground truth it caches
// shows up here as a human-readable complaint. An empty result means the
// namenode state is internally consistent. The invariant suite calls this
// continuously during randomized chaos runs; it is deliberately O(cluster)
// and not meant for hot paths.
func (c *Cluster) ConsistencyErrors() []string {
	var errs []string
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}

	// --- Block space: dense slices, live count, ID discipline.
	if len(c.blocks) != len(c.replicas) {
		fail("blocks/replicas length mismatch: %d vs %d", len(c.blocks), len(c.replicas))
	}
	if int(c.nextBlock) != len(c.blocks) {
		fail("nextBlock %d != len(blocks) %d", c.nextBlock, len(c.blocks))
	}
	live := 0
	for i, b := range c.blocks {
		if b == nil {
			if i < len(c.replicas) && c.replicas[i] != nil {
				fail("deleted block %d still has replicas %v", i, c.replicas[i])
			}
			continue
		}
		live++
		if int(b.ID) != i {
			fail("block at slot %d carries ID %d", i, b.ID)
		}
		seen := map[DatanodeID]bool{}
		for _, r := range c.replicas[i] {
			if r < 0 || int(r) >= len(c.datanodes) {
				fail("block %d replica on out-of-range node %d", b.ID, r)
				continue
			}
			if seen[r] {
				fail("block %d has duplicate replica on node %d", b.ID, r)
			}
			seen[r] = true
			d := c.datanodes[r]
			if !d.blocks.Has(b.ID) {
				fail("block %d listed on %s but absent from its block set", b.ID, d.Name)
			}
			if d.State == StateDown {
				fail("block %d has replica on down node %s", b.ID, d.Name)
			}
		}
	}
	if live != c.liveBlocks {
		fail("liveBlocks %d != recount %d", c.liveBlocks, live)
	}

	// --- Per-datanode books: block set membership, space, non-negativity.
	for _, d := range c.datanodes {
		var used float64
		d.blocks.Each(func(bid BlockID) {
			b := c.Block(bid)
			if b == nil {
				fail("%s holds deleted block %d", d.Name, bid)
				return
			}
			used += b.Size
			found := false
			for _, r := range c.replicas[bid] {
				if r == d.ID {
					found = true
					break
				}
			}
			if !found {
				fail("%s holds block %d not listed in replicas", d.Name, bid)
			}
		})
		// Used is a running sum of adds and frees, the recount a fresh one;
		// with fractional block sizes they differ by rounding, and one ulp
		// at a few GB already exceeds 1e-6 bytes. The tolerance scales with
		// Capacity, not Used: a node that filled and emptied keeps the
		// rounding of its peak while Used is back near zero. At the default
		// 250 GB this is a quarter byte — thousands of worst-case roundings,
		// and still below any real bookkeeping slip.
		tol := 1e-12 * d.Capacity
		if diff := used - d.Used; diff > tol || diff < -tol {
			fail("%s Used %.1f != sum of block sizes %.1f", d.Name, d.Used, used)
		}
		if d.pendingAdds < 0 || d.pendingBytes < -tol {
			fail("%s negative pending bookkeeping: adds=%d bytes=%.1f", d.Name, d.pendingAdds, d.pendingBytes)
		}
		if d.sessions < 0 {
			fail("%s negative session count %d", d.Name, d.sessions)
		}
	}

	// --- Under-replication set vs recomputation.
	want := map[BlockID]struct{}{}
	for _, b := range c.blocks {
		if b == nil {
			continue
		}
		if len(c.replicas[b.ID]) < c.replTarget(b) {
			want[b.ID] = struct{}{}
		}
	}
	for bid := range want {
		if _, ok := c.underSet[bid]; !ok {
			fail("block %d under-replicated but missing from underSet", bid)
		}
	}
	for bid := range c.underSet {
		if _, ok := want[bid]; !ok {
			fail("block %d in underSet but not under-replicated", bid)
		}
	}

	// --- Placement load index vs per-node eligibility and load.
	indexed := 0
	for _, d := range c.datanodes {
		if d.inIdx != d.Eligible() {
			fail("%s index membership %v != Eligible() %v", d.Name, d.inIdx, d.Eligible())
			continue
		}
		if !d.inIdx {
			continue
		}
		indexed++
		if d.idxLoad != d.PlacementLoad() {
			fail("%s indexed at load %d but PlacementLoad is %d", d.Name, d.idxLoad, d.PlacementLoad())
			continue
		}
		if d.idxLoad >= len(c.loadIdx) || !c.loadIdx[d.idxLoad].has(int(d.ID)) {
			fail("%s missing from load bucket %d", d.Name, d.idxLoad)
		}
	}
	total := 0
	for l := range c.loadIdx {
		total += c.loadIdx[l].count
	}
	if total != indexed {
		fail("load index holds %d nodes but %d are eligible", total, indexed)
	}

	// --- File table vs interned IDs.
	for p, f := range c.files {
		if f.id < 0 || f.id >= len(c.fileByID) || c.fileByID[f.id] != f {
			fail("file %q has broken intern id %d", p, f.id)
			continue
		}
		for _, bid := range append(append([]BlockID{}, f.Blocks...), f.Parity...) {
			b := c.Block(bid)
			if b == nil {
				fail("file %q references deleted block %d", p, bid)
				continue
			}
			if c.fileOf(b) != f {
				fail("block %d of %q resolves to the wrong file", bid, p)
			}
		}
	}
	for id, f := range c.fileByID {
		if f == nil {
			continue
		}
		if c.files[f.Path] != f {
			fail("fileByID[%d] (%q) not reachable via files map", id, f.Path)
		}
	}

	sort.Strings(errs)
	return errs
}
