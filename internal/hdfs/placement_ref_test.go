package hdfs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"erms/internal/sim"
	"erms/internal/topology"
)

// refScanEligible is the candidate scan as it stood before NodeSet
// exclusion and the replica-list holder check: a map of excluded nodes and
// each candidate's block bitmap. It leaves idxMin alone, which only ever
// skipped empty buckets.
func refScanEligible(c *Cluster, b Block, exclude map[DatanodeID]bool, visit func(DatanodeID) bool) {
	for l := c.idxMin; l < len(c.loadIdx); l++ {
		s := &c.loadIdx[l]
		if s.count == 0 {
			continue
		}
		stopped := s.each(func(id DatanodeID) bool {
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

// refChooseTargets is DefaultPolicy.ChooseTargets as it stood with per-call
// maps, kept verbatim (its scan swapped for refScanEligible) as the
// reference the bitset policy must reproduce target for target.
func refChooseTargets(c *Cluster, b Block, count int, writer DatanodeID, exclude map[DatanodeID]bool) []DatanodeID {
	var chosen []DatanodeID
	taken := map[DatanodeID]bool{}
	for k := range exclude {
		taken[k] = true
	}
	existing := c.replicas[b.ID]
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
		refScanEligible(c, b, taken, func(id DatanodeID) bool {
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
			id, ok = pick(func(n DatanodeID) bool { return rackOf(n) != firstRack })
			if !ok {
				id, ok = pick(nil)
			}
		case 2:
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

// placementScenario builds a small cluster in the states placement must
// tell apart: standby nodes (some commissioned), full nodes, blocks whose
// survivors huddle in one rack, lost blocks, crashed, stale and
// partitioned nodes, and nodes with pending inbound copies.
func placementScenario(seed int64) (*Cluster, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	racks := 2 + rng.Intn(4)
	topo := topology.New(topology.Config{Racks: racks, NodeCount: racks * (2 + rng.Intn(5))})
	n := topo.NumNodes()
	var standby []DatanodeID
	for id := 0; id < n; id++ {
		if rng.Intn(6) == 0 {
			standby = append(standby, DatanodeID(id))
		}
	}
	cfg := Config{Topology: topo, StandbyNodes: standby, Heartbeat: HeartbeatConfig{Enabled: true}}
	if rng.Intn(3) == 0 {
		cfg.NodeCapacity = float64(3+rng.Intn(8)) * 64 * mb
	}
	e := sim.NewEngine()
	c := New(e, cfg)
	for _, id := range standby {
		if rng.Intn(2) == 0 {
			c.Commission(id)
		}
	}
	node := func() DatanodeID { return DatanodeID(rng.Intn(n)) }
	for f := 4 + rng.Intn(10); f > 0; f-- {
		size := float64(1+rng.Intn(4))*64*mb - float64(rng.Intn(2))*mb
		c.CreateFile(fmt.Sprintf("/p/f%02d", f), size, 1+rng.Intn(4), topology.NodeID(rng.Intn(n+1)-1))
	}
	// Survivors huddled in one rack: some blocks keep only the replicas in
	// their first replica's rack.
	for bid := range c.blocks {
		if reps := c.Replicas(BlockID(bid)); len(reps) > 1 && rng.Intn(4) == 0 {
			r0 := topo.Rack(topology.NodeID(reps[0]))
			for _, r := range slices.Clone(reps[1:]) {
				if topo.Rack(topology.NodeID(r)) != r0 {
					c.RemoveReplica(BlockID(bid), r)
				}
			}
		}
	}
	fault := func() {
		for k := rng.Intn(3); k > 0; k-- {
			c.Kill(node()) // crashed; declared dead only past DeadTimeout
		}
		for k := rng.Intn(3); k > 0; k-- {
			c.SetFault(node(), Fault{Muted: true}) // ages to stale
		}
	}
	fault()
	if rng.Intn(3) == 0 {
		e.RunFor(11 * time.Minute) // past DeadTimeout: replicas released, blocks lost
	}
	fault()
	if rng.Intn(3) == 0 {
		c.PartitionRack(rng.Intn(racks))
	}
	e.RunFor(45 * time.Second)
	// Copies in flight: pending adds and bytes on their targets.
	for k := rng.Intn(4); k > 0; k-- {
		if b, ok := randomBlock(c, rng); ok {
			c.AddReplica(b.ID, node(), nil)
		}
	}
	return c, rng
}

func randomBlock(c *Cluster, rng *rand.Rand) (Block, bool) {
	var live []BlockID
	for id := range c.blocks {
		if c.live(BlockID(id)) {
			live = append(live, BlockID(id))
		}
	}
	if len(live) == 0 {
		return Block{}, false
	}
	return c.view(live[rng.Intn(len(live))]), true
}

// randomExclusion returns a random exclusion as the map the reference
// reads and the NodeSet the policy reads; nil half the time.
func randomExclusion(c *Cluster, rng *rand.Rand) (map[DatanodeID]bool, *NodeSet) {
	if rng.Intn(2) == 0 {
		return nil, nil
	}
	m, s := map[DatanodeID]bool{}, &NodeSet{}
	for k := rng.Intn(4); k > 0; k-- {
		id := DatanodeID(rng.Intn(len(c.datanodes)))
		m[id] = true
		s.Add(id)
	}
	return m, s
}

// TestChooseTargetsMatchesReference: on 2,000 seeded clusters the bitset
// DefaultPolicy picks exactly the map-based reference's targets, in order,
// appending after whatever dst already holds, and ScanEligible visits
// exactly the reference scan's candidates.
func TestChooseTargetsMatchesReference(t *testing.T) {
	p := NewDefaultPolicy()
	slots, seen := map[int]int{}, map[string]int{}
	for seed := int64(0); seed < 2000; seed++ {
		c, rng := placementScenario(seed)
		for _, d := range c.datanodes {
			seen["stale"] += boolInt(d.Stale)
			seen["crashed"] += boolInt(d.fault.Crashed && d.State != StateDown)
			seen["pending"] += boolInt(d.pendingBytes > 0)
			seen["full"] += boolInt(d.Eligible() && d.Free() < 64*mb)
			seen["standby"] += boolInt(d.State == StateStandby)
		}
		seen["partitioned"] += len(c.partitioned)
		for q := 0; q < 6; q++ {
			b, ok := randomBlock(c, rng)
			if !ok {
				break
			}
			count := 1 + rng.Intn(4)
			writer := DatanodeID(rng.Intn(len(c.datanodes)+1) - 1)
			exM, exS := randomExclusion(c, rng)
			want := refChooseTargets(c, b, count, writer, exM)
			prefix := []DatanodeID{DatanodeID(rng.Intn(len(c.datanodes)))}[:rng.Intn(2)]
			got := p.ChooseTargets(slices.Clone(prefix), c, b, count, writer, exS)
			if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
				t.Fatalf("seed %d block %d count %d writer %d exclude %v: got %v after %v, reference %v",
					seed, b.ID, count, writer, exM, got[len(prefix):], prefix, want)
			}
			var fast, slow []DatanodeID
			c.ScanEligible(b, exS, func(id DatanodeID) bool { fast = append(fast, id); return false })
			refScanEligible(c, b, exM, func(id DatanodeID) bool { slow = append(slow, id); return false })
			if !slices.Equal(fast, slow) {
				t.Fatalf("seed %d block %d: ScanEligible %v, reference %v", seed, b.ID, fast, slow)
			}
			slots[min(len(c.Replicas(b.ID)), 3)]++
			seen["excluded"] += len(exM)
			seen["writer"] += boolInt(writer >= 0 && len(c.Replicas(b.ID)) == 0)
		}
	}
	t.Logf("node states: %v; queries by starting slot: %v", seen, slots)
	for slot := 0; slot <= 3; slot++ {
		if slots[slot] == 0 {
			t.Errorf("no query started at slot %d: %v", slot, slots)
		}
	}
	for _, state := range []string{"stale", "crashed", "pending", "full", "standby", "partitioned", "excluded", "writer"} {
		if seen[state] == 0 {
			t.Errorf("no scenario exercised %s: %v", state, seen)
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestNodeSetMatchesMap drives NodeSet and a map model through random
// adds, removes, unions and clears: membership, Len and the ascending
// iteration order must agree after every step.
func TestNodeSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s, other NodeSet
	model, otherModel := map[DatanodeID]bool{}, map[DatanodeID]bool{}
	for step := 0; step < 20000; step++ {
		id := DatanodeID(rng.Intn(200))
		switch rng.Intn(10) {
		case 0:
			s.Clear()
			clear(model)
		case 1:
			s.Union(&other)
			for k := range otherModel {
				model[k] = true
			}
		case 2:
			other.Add(id)
			otherModel[id] = true
		case 3, 4:
			s.Remove(id)
			delete(model, id)
		default:
			s.Add(id)
			model[id] = true
		}
		var got []DatanodeID
		s.each(func(id DatanodeID) bool { got = append(got, id); return false })
		var want []DatanodeID
		for k := range model {
			want = append(want, k)
		}
		slices.Sort(want)
		if s.Len() != len(model) || !slices.Equal(got, want) || s.Has(id) != model[id] {
			t.Fatalf("step %d: set %v (len %d), model %v", step, got, s.Len(), want)
		}
	}
	var none *NodeSet
	if none.Has(3) {
		t.Error("nil set has a member")
	}
	s.Union(none)
}
