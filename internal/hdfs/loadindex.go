package hdfs

// This file holds the three incremental indexes that keep namenode-side
// scans off the hot path at the 1,000-datanode / 1M-file scale:
//
//   - the placement load index (loadIdx): eligible datanodes bucketed by
//     PlacementLoad, each bucket a bitset iterated in ascending node ID —
//     reproducing exactly the (load, ID) order the old per-call sort
//     produced, without visiting every node per placement;
//   - the under-replication set (underSet): maintained at every replica or
//     target mutation, so UnderReplicated() is proportional to the number
//     of degraded blocks, not the block space;
//   - the above-default set (aboveDefault): the files whose replication is
//     over the cluster default, maintained where a first data block's
//     replica count changes, so AboveDefault() is proportional to the
//     elevated files, not the namespace.

import (
	"math/bits"
	"slices"
)

// NodeSet is a bitset over datanode IDs with a population count: O(1)
// insert and remove, ascending-ID iteration by word scans. The zero value
// is empty and a nil *NodeSet reads as empty. Placement keeps its node
// working sets (exclusions, picks) in NodeSets it clears and refills.
type NodeSet struct {
	words []uint64
	count int
}

// Add inserts id.
func (s *NodeSet) Add(id DatanodeID) {
	for len(s.words) <= int(id>>6) {
		s.words = append(s.words, 0)
	}
	if !s.Has(id) {
		s.words[id>>6] |= 1 << uint(id&63)
		s.count++
	}
}

// Remove deletes id if present.
func (s *NodeSet) Remove(id DatanodeID) {
	if s.Has(id) {
		s.words[id>>6] &^= 1 << uint(id&63)
		s.count--
	}
}

// Has reports whether id is a member; false on a nil set.
func (s *NodeSet) Has(id DatanodeID) bool {
	return s != nil && uint(id>>6) < uint(len(s.words)) && s.words[id>>6]&(1<<uint(id&63)) != 0
}

// Len returns the number of members.
func (s *NodeSet) Len() int { return s.count }

// Clear empties the set, keeping its words for reuse.
func (s *NodeSet) Clear() {
	clear(s.words)
	s.count = 0
}

// Union adds every member of o (nil adds nothing), a word-wise OR.
func (s *NodeSet) Union(o *NodeSet) {
	if o == nil {
		return
	}
	for len(s.words) < len(o.words) {
		s.words = append(s.words, 0)
	}
	for w, word := range o.words {
		s.count += bits.OnesCount64(word &^ s.words[w])
		s.words[w] |= word
	}
}

// each visits members in ascending ID order until visit returns true;
// it reports whether the iteration was stopped early.
func (s *NodeSet) each(visit func(id DatanodeID) bool) bool {
	for w, word := range s.words {
		for word != 0 {
			id := DatanodeID(w<<6 + bits.TrailingZeros64(word))
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
		c.loadIdx[d.idxLoad].Remove(d.ID)
		d.inIdx = false
	}
	if !want {
		return
	}
	for len(c.loadIdx) <= load {
		c.loadIdx = append(c.loadIdx, NodeSet{})
	}
	c.loadIdx[load].Add(d.ID)
	d.idxLoad = load
	d.inIdx = true
	if load < c.idxMin {
		c.idxMin = load
	}
}

// ScanEligible visits placement candidates for b in (PlacementLoad, ID)
// order: every datanode that is eligible (active, not stale, not crashed —
// the index's membership invariant), reachable, not already holding b, not
// in exclude (nil excludes nothing), and with uncommitted room for the
// block. It is the one candidate predicate: DefaultPolicy and the ERMS
// policy both collect through it, and the invariant package's storage
// oracle compares it with a from-scratch reference scan on every sweep.
// visit returns true to stop early.
//
// Holders are read off b's replica list (at most a few entries), not the
// candidates' block bitmaps: ConsistencyErrors holds the two to the same
// membership in both directions. A block ID outside the block map, like
// the oracle's probe, has no holders.
func (c *Cluster) ScanEligible(b Block, exclude *NodeSet, visit func(DatanodeID) bool) {
	holders := c.Replicas(b.ID)
	for l := c.idxMin; l < len(c.loadIdx); l++ {
		s := &c.loadIdx[l]
		if s.count == 0 {
			if l == c.idxMin {
				c.idxMin++ // lazily skip leading empty buckets next time
			}
			continue
		}
		stopped := s.each(func(id DatanodeID) bool {
			if slices.Contains(holders, id) || exclude.Has(id) {
				return false
			}
			if c.NodeUnreachable(id) || c.datanodes[id].UncommittedFree() < b.Size {
				return false
			}
			return visit(id)
		})
		if stopped {
			return
		}
	}
}

// ReplTarget is the replica count live block id must hold, no fewer and
// no more: 1 for parity blocks and blocks of encoded files; the file's
// TargetRepl otherwise.
func (c *Cluster) ReplTarget(id BlockID) int {
	r := c.blocks[id]
	if f := c.fileByID[r.file]; r.pos >= 0 && !f.Encoded {
		return f.TargetRepl
	}
	return 1
}

// reassessBlock updates live block id's membership in the
// under-replicated set.
func (c *Cluster) reassessBlock(id BlockID) {
	if len(c.replicas[id]) < c.ReplTarget(id) {
		c.underSet[id] = struct{}{}
	} else {
		delete(c.underSet, id)
	}
}

// reassessFile re-derives under-replication for every data block of f;
// called when the file-level target changes (SetReplication, encode,
// decode) rather than a single block's replica count.
func (c *Cluster) reassessFile(f *INode) {
	for _, bid := range f.Blocks {
		c.reassessBlock(bid)
	}
}

// AboveDefault returns every live file whose replication (its first data
// block's replica count, see Replication) exceeds DefaultReplication, in no
// particular order — formula (5)'s candidates, without a namespace sweep.
// Callers must not mutate the slice, and must not change any file's replica
// count or the namespace while ranging over it.
func (c *Cluster) AboveDefault() []*INode { return c.aboveDefault }

// reassessAboveDefault updates the above-default set after a replica of
// block id landed or left (attachReplica, detachReplica): that moves its
// file's replication when id is the file's first data block. Encode,
// decode and delete change the count only through those two.
func (c *Cluster) reassessAboveDefault(id BlockID) {
	f := c.owner(id)
	if f == nil || len(f.Blocks) == 0 || f.Blocks[0] != id {
		return
	}
	i, in := c.aboveAt[f.ID()]
	switch want := c.Replication(f) > DefaultReplication; {
	case want && !in:
		c.aboveAt[f.ID()] = len(c.aboveDefault)
		c.aboveDefault = append(c.aboveDefault, f)
	case !want && in:
		last := c.aboveDefault[len(c.aboveDefault)-1]
		c.aboveDefault[i], c.aboveAt[last.ID()] = last, i
		c.aboveDefault = c.aboveDefault[:len(c.aboveDefault)-1]
		delete(c.aboveAt, f.ID())
	}
}

// rebuildDerived re-derives the indexes beside the namespace — placement
// load buckets, the under-replicated set and the above-default set — from
// the durable state when a checkpoint is restored. Journal replay keeps
// them current entry by entry, through the live mutators.
func (c *Cluster) rebuildDerived() {
	c.loadIdx, c.idxMin = nil, 0
	for _, d := range c.datanodes {
		d.inIdx = false
		c.reindexNode(d)
	}
	c.underSet = make(map[BlockID]struct{})
	for id, r := range c.blocks {
		if r.file >= 0 {
			c.reassessBlock(BlockID(id))
		}
	}
	c.pathsCache = nil
	c.aboveDefault, c.aboveAt = nil, make(map[int]int)
	for _, f := range c.fileByID {
		if f != nil && c.Replication(f) > DefaultReplication {
			c.aboveAt[f.ID()] = len(c.aboveDefault)
			c.aboveDefault = append(c.aboveDefault, f)
		}
	}
}
