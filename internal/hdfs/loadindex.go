package hdfs

// This file holds the two incremental indexes that keep namenode-side scans
// off the hot path at the 1,000-datanode / 1M-file scale:
//
//   - the placement load index (loadIdx): eligible datanodes bucketed by
//     PlacementLoad, each bucket a bitset iterated in ascending node ID —
//     reproducing exactly the (load, ID) order the old per-call sort
//     produced, without visiting every node per placement;
//   - the under-replication set (underSet): maintained at every replica or
//     target mutation, so UnderReplicated() is proportional to the number
//     of degraded blocks, not the block space.

import "math/bits"

// nodeSet is a bitset over datanode IDs with a population count. Insert and
// remove are O(1); iteration is ascending-ID via word scans.
type nodeSet struct {
	words []uint64
	count int
}

func (s *nodeSet) add(id int) {
	w := id >> 6
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
	bit := uint64(1) << uint(id&63)
	if s.words[w]&bit == 0 {
		s.words[w] |= bit
		s.count++
	}
}

func (s *nodeSet) remove(id int) {
	w := id >> 6
	if w >= len(s.words) {
		return
	}
	bit := uint64(1) << uint(id&63)
	if s.words[w]&bit != 0 {
		s.words[w] &^= bit
		s.count--
	}
}

func (s *nodeSet) has(id int) bool {
	w := id >> 6
	return w < len(s.words) && s.words[w]&(uint64(1)<<uint(id&63)) != 0
}

// each visits members in ascending ID order until visit returns true;
// it reports whether the iteration was stopped early.
func (s *nodeSet) each(visit func(id int) bool) bool {
	for w, word := range s.words {
		for word != 0 {
			id := w<<6 + bits.TrailingZeros64(word)
			if visit(id) {
				return true
			}
			word &= word - 1
		}
	}
	return false
}

// reindexNode re-registers d in the placement load index after anything
// that can change its eligibility (state, staleness, crash) or its
// PlacementLoad (block count, pending adds). Callers are the replica
// chokepoints (attach/detach), AddReplica's pending bookkeeping, every
// node state transition, and heartbeat stale flips.
func (c *Cluster) reindexNode(d *Datanode) {
	want := d.Eligible()
	load := d.PlacementLoad()
	if d.inIdx {
		if want && d.idxLoad == load {
			return
		}
		c.loadIdx[d.idxLoad].remove(int(d.ID))
		d.inIdx = false
	}
	if !want {
		return
	}
	for len(c.loadIdx) <= load {
		c.loadIdx = append(c.loadIdx, nodeSet{})
	}
	c.loadIdx[load].add(int(d.ID))
	d.idxLoad = load
	d.inIdx = true
	if load < c.idxMin {
		c.idxMin = load
	}
}

// ScanEligible visits placement candidates for b in (PlacementLoad, ID)
// order: every datanode that is eligible (active, not stale, not crashed —
// the index's membership invariant), reachable, not already holding b, not
// in exclude, and with uncommitted room for the block. It is the one
// candidate predicate: DefaultPolicy and the ERMS policy both collect
// through it, and the invariant package's storage oracle compares it with
// a from-scratch reference scan on every sweep. visit returns true to stop
// early.
func (c *Cluster) ScanEligible(b *Block, exclude map[DatanodeID]bool, visit func(DatanodeID) bool) {
	for l := c.idxMin; l < len(c.loadIdx); l++ {
		s := &c.loadIdx[l]
		if s.count == 0 {
			if l == c.idxMin {
				c.idxMin++ // lazily skip leading empty buckets next time
			}
			continue
		}
		stopped := s.each(func(n int) bool {
			id := DatanodeID(n)
			d := c.datanodes[id]
			if d.blocks.Has(b.ID) || exclude[id] {
				return false
			}
			if c.NodeUnreachable(id) || d.UncommittedFree() < b.Size {
				return false
			}
			return visit(id)
		})
		if stopped {
			return
		}
	}
}

// replTarget returns the replica count a block must hold to leave the
// under-replicated set: 1 for parity blocks, orphans, and blocks of
// encoded files; the file's TargetRepl otherwise.
func (c *Cluster) replTarget(b *Block) int {
	if b.Parity {
		return 1
	}
	f := c.fileOf(b)
	if f == nil || f.Encoded {
		return 1
	}
	return f.TargetRepl
}

// reassessBlock updates b's membership in the under-replicated set.
func (c *Cluster) reassessBlock(b *Block) {
	if len(c.replicas[b.ID]) < c.replTarget(b) {
		c.underSet[b.ID] = struct{}{}
	} else {
		delete(c.underSet, b.ID)
	}
}

// reassessFile re-derives under-replication for every data block of f;
// called when the file-level target changes (SetReplication, encode,
// decode) rather than a single block's replica count.
func (c *Cluster) reassessFile(f *INode) {
	for _, bid := range f.Blocks {
		if b := c.blocks[bid]; b != nil {
			c.reassessBlock(b)
		}
	}
}
