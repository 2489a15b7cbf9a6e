package hdfs

import "erms/internal/topology"

// Policy is the pluggable replica placement interface (HDFS lets
// administrators "implement their own replica placement strategy").
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// ChooseTargets picks count datanodes to host new replicas of b,
	// excluding nodes in exclude and nodes already holding the block.
	// writer is the creating client's node (-1 when remote/unknown). It
	// may return fewer than count when the cluster cannot satisfy the
	// request.
	ChooseTargets(c *Cluster, b *Block, count int, writer DatanodeID, exclude map[DatanodeID]bool) []DatanodeID
	// ChooseExcess picks the replica of b to delete when shrinking.
	ChooseExcess(c *Cluster, b *Block) (DatanodeID, bool)
}

// DefaultPolicy is HDFS's rack-aware strategy: first replica on the writer
// (or a random active node), second on a node in a different rack, third on
// a different node in the second's rack, and further replicas spread over
// active nodes with the fewest blocks. Only Active nodes are eligible.
type DefaultPolicy struct{}

// NewDefaultPolicy returns the rack-aware default.
func NewDefaultPolicy() *DefaultPolicy { return &DefaultPolicy{} }

// Name implements Policy.
func (p *DefaultPolicy) Name() string { return "default-rack-aware" }

// ChooseTargets implements Policy.
func (p *DefaultPolicy) ChooseTargets(c *Cluster, b *Block, count int, writer DatanodeID, exclude map[DatanodeID]bool) []DatanodeID {
	var chosen []DatanodeID
	taken := map[DatanodeID]bool{}
	for k := range exclude {
		taken[k] = true
	}
	existing := c.replicas[b.ID]
	// Racks covered by existing replicas plus picks so far. When a repair
	// finds the survivors huddled in a single rack (the cross-rack copy was
	// the one that died), the slot heuristics below must not co-locate the
	// new replica with them — one rack outage would erase the block.
	rackSpan := map[int]bool{}
	for _, r := range existing {
		rackSpan[c.topo.Rack(topology.NodeID(r))] = true
	}
	add := func(id DatanodeID) {
		chosen = append(chosen, id)
		taken[id] = true
		rackSpan[c.topo.Rack(topology.NodeID(id))] = true
	}
	pick := func(pred func(DatanodeID) bool) (DatanodeID, bool) {
		var found DatanodeID = -1
		c.ScanEligible(b, taken, func(id DatanodeID) bool {
			if pred == nil || pred(id) {
				found = id
				return true
			}
			return false
		})
		if found < 0 {
			return 0, false
		}
		return found, true
	}

	// Rack of the "first" replica for rack-awareness decisions.
	firstRack := -1
	rackOf := func(id DatanodeID) int { return c.topo.Rack(topology.NodeID(id)) }
	if len(existing) > 0 {
		firstRack = rackOf(existing[0])
	}

	for len(chosen) < count {
		slot := len(existing) + len(chosen)
		var id DatanodeID
		var ok bool
		switch slot {
		case 0:
			// Writer-local if possible.
			if writer >= 0 && int(writer) < len(c.datanodes) {
				d := c.datanodes[writer]
				if d.Eligible() && !c.NodeUnreachable(writer) && !taken[writer] &&
					d.Free() >= b.Size && !d.HasBlock(b.ID) {
					id, ok = writer, true
				}
			}
			if !ok {
				id, ok = pick(nil)
			}
			if ok {
				firstRack = rackOf(id)
			}
		case 1:
			// Different rack from the first replica.
			id, ok = pick(func(n DatanodeID) bool { return rackOf(n) != firstRack })
			if !ok {
				id, ok = pick(nil)
			}
		case 2:
			// Same rack as the second replica, different node — unless the
			// replicas so far all share one rack (a re-replication whose
			// survivors lost their cross-rack copy): then restore rack
			// diversity first, as HDFS's replication monitor does.
			if len(rackSpan) < 2 {
				id, ok = pick(func(n DatanodeID) bool { return !rackSpan[rackOf(n)] })
			}
			if !ok {
				secondRack := -1
				if len(existing) > 1 {
					secondRack = rackOf(existing[1])
				} else if len(chosen) > 0 {
					secondRack = rackOf(chosen[len(chosen)-1])
				}
				id, ok = pick(func(n DatanodeID) bool { return rackOf(n) == secondRack })
			}
			if !ok {
				id, ok = pick(nil)
			}
		default:
			if len(rackSpan) < 2 {
				id, ok = pick(func(n DatanodeID) bool { return !rackSpan[rackOf(n)] })
			}
			if !ok {
				id, ok = pick(nil)
			}
		}
		if !ok {
			break
		}
		add(id)
	}
	return chosen
}

// ChooseExcess implements Policy: pick the replica whose loss costs the
// least. Corrupt replicas go first, then replicas on nodes that are not
// currently serving (crashed or partitioned but not yet declared dead),
// then clean replicas in racks that still hold another clean copy — so a
// shrink never collapses a block into a single rack, or worse, keeps only
// unreadable copies, while healthy ones exist. Within a class the node
// holding the most blocks loses (load shedding), tie-break by ID, so the
// choice stays deterministic.
func (p *DefaultPolicy) ChooseExcess(c *Cluster, b *Block) (DatanodeID, bool) {
	reps := c.replicas[b.ID]
	if len(reps) == 0 {
		return 0, false
	}
	// A replica is readable only from a serving, un-crashed, non-stale,
	// reachable node holding a clean copy.
	readable := func(id DatanodeID) bool {
		d := c.datanodes[id]
		return !d.CorruptBlock(b.ID) && d.State.serves() && !d.crashed &&
			!d.Stale && !c.NodeUnreachable(id)
	}
	// Racks counted over clean, reachable replicas only: a rack whose other
	// copy is corrupt does not really hold a second copy.
	rackHealthy := map[int]int{}
	for _, r := range reps {
		if readable(r) {
			rackHealthy[c.topo.Rack(topology.NodeID(r))]++
		}
	}
	class := func(id DatanodeID) int {
		switch {
		case c.datanodes[id].CorruptBlock(b.ID):
			return 3
		case !readable(id):
			return 2
		case rackHealthy[c.topo.Rack(topology.NodeID(id))] >= 2:
			return 1
		}
		return 0
	}
	best, bestClass := reps[0], class(reps[0])
	for _, r := range reps[1:] {
		cl := class(r)
		if cl < bestClass {
			continue
		}
		db, dr := c.datanodes[best], c.datanodes[r]
		if cl > bestClass || dr.NumBlocks() > db.NumBlocks() ||
			(dr.NumBlocks() == db.NumBlocks() && r > best) {
			best, bestClass = r, cl
		}
	}
	return best, true
}
