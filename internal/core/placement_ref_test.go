package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"erms/internal/hdfs"
	"erms/internal/sim"
	"erms/internal/topology"
)

// refPlacement is Placement as it stood with map-keyed pools and per-call
// maps: ChooseTargets, extraTargets and parityTargets kept verbatim, their
// exclusions handed to the base policy and ScanEligible through asNodeSet.
// hdfs's TestChooseTargetsMatchesReference holds those two to their own
// map-based reference, so agreement here pins the whole placement.
type refPlacement struct {
	base    *hdfs.DefaultPolicy
	pool    map[hdfs.DatanodeID]bool
	scratch map[hdfs.DatanodeID]bool
}

func asNodeSet(m map[hdfs.DatanodeID]bool) *hdfs.NodeSet {
	if m == nil {
		return nil
	}
	s := &hdfs.NodeSet{}
	for id, in := range m {
		if in {
			s.Add(id)
		}
	}
	return s
}

func (p *refPlacement) refChooseTargets(c *hdfs.Cluster, b hdfs.Block, count int, writer hdfs.DatanodeID, exclude map[hdfs.DatanodeID]bool) []hdfs.DatanodeID {
	if b.Parity {
		return p.parityTargets(c, b, count, exclude)
	}
	cur := len(c.Replicas(b.ID))
	rD := hdfs.DefaultReplication
	if cur < rD {
		// Below default factor: stock rack-aware placement, but never put
		// base replicas on the standby pool — pooled nodes may power off.
		need := rD - cur
		if need > count {
			need = count
		}
		base := p.base.ChooseTargets(nil, c, b, need, writer, asNodeSet(p.excludePool(exclude)))
		if len(base) < need {
			// Pool nodes as a last resort (tiny active set).
			more := p.base.ChooseTargets(nil, c, b, need-len(base), writer, asNodeSet(refMerge(exclude, refAsSet(base))))
			base = append(base, more...)
		}
		if count > need {
			more := p.extraTargets(c, b, count-need, refMerge(exclude, refAsSet(base)))
			base = append(base, more...)
		}
		return base
	}
	return p.extraTargets(c, b, count, exclude)
}

// extraTargets places extra (hot-data) replicas: standby-pool nodes first,
// preferring same-rack-as-existing-replica, then fewest blocks; falling
// back to active non-pool nodes.
func (p *refPlacement) extraTargets(c *hdfs.Cluster, b hdfs.Block, count int, exclude map[hdfs.DatanodeID]bool) []hdfs.DatanodeID {
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
	c.ScanEligible(b, asNodeSet(exclude), func(id hdfs.DatanodeID) bool {
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
func (p *refPlacement) parityTargets(c *hdfs.Cluster, b hdfs.Block, count int, exclude map[hdfs.DatanodeID]bool) []hdfs.DatanodeID {
	f := c.File(b.File)
	blocksOf := map[hdfs.DatanodeID]int{}
	if f != nil {
		for _, ids := range [][]hdfs.BlockID{f.Blocks, f.Parity()} {
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
	c.ScanEligible(b, asNodeSet(exclude), func(id hdfs.DatanodeID) bool {
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

func (p *refPlacement) excludePool(exclude map[hdfs.DatanodeID]bool) map[hdfs.DatanodeID]bool {
	if len(exclude) == 0 {
		return p.pool
	}
	clear(p.scratch)
	maps.Copy(p.scratch, exclude)
	maps.Copy(p.scratch, p.pool)
	return p.scratch
}

func refAsSet(ids []hdfs.DatanodeID) map[hdfs.DatanodeID]bool {
	m := map[hdfs.DatanodeID]bool{}
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func refMerge(a, b map[hdfs.DatanodeID]bool) map[hdfs.DatanodeID]bool {
	out := map[hdfs.DatanodeID]bool{}
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// placementScenario builds a small cluster with a standby pool (part of it
// commissioned), files at replication 1 to 5 — some erasure-coded, so
// their parity blocks are placed by parityTargets — blocks whose survivors
// huddle in one rack, lost blocks, crashed, stale and partitioned nodes,
// and pending inbound copies.
func placementScenario(seed int64) (*hdfs.Cluster, map[hdfs.DatanodeID]bool, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	racks := 2 + rng.Intn(4)
	topo := topology.New(topology.Config{Racks: racks, NodeCount: racks * (2 + rng.Intn(5))})
	n := topo.NumNodes()
	pool := map[hdfs.DatanodeID]bool{}
	var standby []hdfs.DatanodeID
	for id := 0; id < n; id++ {
		if rng.Intn(4) == 0 {
			pool[hdfs.DatanodeID(id)] = true
			standby = append(standby, hdfs.DatanodeID(id))
		}
	}
	cfg := hdfs.Config{Topology: topo, StandbyNodes: standby, Heartbeat: hdfs.HeartbeatConfig{Enabled: true}}
	if rng.Intn(3) == 0 {
		cfg.NodeCapacity = float64(3+rng.Intn(8)) * 64 * topology.MB
	}
	e := sim.NewEngine()
	c := hdfs.New(e, cfg)
	for _, id := range standby {
		if rng.Intn(3) > 0 {
			c.Commission(id)
		}
	}
	node := func() hdfs.DatanodeID { return hdfs.DatanodeID(rng.Intn(n)) }
	for f := 4 + rng.Intn(10); f > 0; f-- {
		path := fmt.Sprintf("/p/f%02d", f)
		size := float64(1+rng.Intn(5))*64*topology.MB - float64(rng.Intn(2))*topology.MB
		if _, err := c.CreateFile(path, size, 1+rng.Intn(5), topology.NodeID(rng.Intn(n+1)-1)); err == nil && rng.Intn(3) == 0 {
			c.EncodeFile(path, 2, 1+rng.Intn(2), nil)
		}
	}
	e.RunFor(time.Minute) // encodes land
	for _, b := range blocksOf(c) {
		if reps := c.Replicas(b.ID); len(reps) > 1 && rng.Intn(4) == 0 {
			r0 := topo.Rack(topology.NodeID(reps[0]))
			for _, r := range slices.Clone(reps[1:]) {
				if topo.Rack(topology.NodeID(r)) != r0 {
					c.RemoveReplica(b.ID, r)
				}
			}
		}
	}
	fault := func() {
		for k := rng.Intn(3); k > 0; k-- {
			c.Kill(node())
		}
		for k := rng.Intn(3); k > 0; k-- {
			c.SetFault(node(), hdfs.Fault{Muted: true})
		}
	}
	fault()
	if rng.Intn(3) == 0 {
		e.RunFor(11 * time.Minute)
	}
	fault()
	if rng.Intn(3) == 0 {
		c.PartitionRack(rng.Intn(racks))
	}
	e.RunFor(45 * time.Second)
	if bs := blocksOf(c); len(bs) > 0 {
		for k := rng.Intn(4); k > 0; k-- {
			c.AddReplica(bs[rng.Intn(len(bs))].ID, node(), nil)
		}
	}
	return c, pool, rng
}

// blocksOf lists every live block, data and parity, in path order.
func blocksOf(c *hdfs.Cluster) []hdfs.Block {
	var out []hdfs.Block
	for _, p := range c.FilePaths() {
		f := c.File(p)
		for _, ids := range [2][]hdfs.BlockID{f.Blocks, f.Parity()} {
			for _, id := range ids {
				b, _ := c.Block(id)
				out = append(out, b)
			}
		}
	}
	return out
}

// TestPlacementMatchesReference: on 2,000 seeded clusters the ERMS policy
// over NodeSets picks exactly refPlacement's targets, in order, for base,
// extra and parity placements, with and without exclusions, appending
// after whatever dst already holds.
func TestPlacementMatchesReference(t *testing.T) {
	kinds := map[string]int{}
	for seed := int64(0); seed < 2000; seed++ {
		c, pool, rng := placementScenario(seed)
		p := NewPlacement(pool)
		ref := &refPlacement{base: hdfs.NewDefaultPolicy(), pool: pool, scratch: map[hdfs.DatanodeID]bool{}}
		bs := blocksOf(c)
		for q := 0; q < 6 && len(bs) > 0; q++ {
			b := bs[rng.Intn(len(bs))]
			count := 1 + rng.Intn(5)
			writer := hdfs.DatanodeID(rng.Intn(len(c.Datanodes())+1) - 1)
			var exclude map[hdfs.DatanodeID]bool
			if rng.Intn(2) == 0 {
				exclude = map[hdfs.DatanodeID]bool{}
				for k := rng.Intn(4); k > 0; k-- {
					exclude[hdfs.DatanodeID(rng.Intn(len(c.Datanodes())))] = true
				}
			}
			want := ref.refChooseTargets(c, b, count, writer, exclude)
			prefix := []hdfs.DatanodeID{7}[:rng.Intn(2)]
			got := p.ChooseTargets(slices.Clone(prefix), c, b, count, writer, asNodeSet(exclude))
			if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
				t.Fatalf("seed %d block %d (parity %v, %d replicas) count %d writer %d exclude %v: got %v, reference %v",
					seed, b.ID, b.Parity, len(c.Replicas(b.ID)), count, writer, exclude, got[len(prefix):], want)
			}
			switch cur := len(c.Replicas(b.ID)); {
			case b.Parity:
				kinds["parity"]++
			case cur >= hdfs.DefaultReplication:
				kinds["extra"]++
			case count > hdfs.DefaultReplication-cur:
				kinds["base+extra"]++
			default:
				kinds["base"]++
			}
			for _, id := range want {
				if pool[id] {
					kinds["pool target"]++
				}
			}
		}
	}
	t.Logf("placements by kind: %v", kinds)
	for _, k := range []string{"parity", "extra", "base+extra", "base", "pool target"} {
		if kinds[k] == 0 {
			t.Errorf("no %s placement exercised: %v", k, kinds)
		}
	}
}
