package experiments

import (
	"fmt"
	"testing"

	"erms"
	"erms/internal/hdfs"
	"erms/internal/sim"
	"erms/internal/topology"
)

// TestStandbyLayout holds every shipped standby set to the paper's
// Active/Standby layout, "the active nodes and standby nodes are both
// distributed in different racks": each rack keeps at least one active
// node, and the racks' standby counts differ by at most one.
func TestStandbyLayout(t *testing.T) {
	check := func(name string, topo *topology.Topology, inPool func(hdfs.DatanodeID) bool, want int) {
		t.Helper()
		standby := make([]int, topo.NumRacks())
		total := 0
		for _, n := range topo.Nodes {
			if inPool(hdfs.DatanodeID(n.ID)) {
				standby[n.Rack]++
				total++
			}
		}
		if total != want {
			t.Errorf("%s: %d standby nodes, want %d", name, total, want)
		}
		lo, hi := standby[0], standby[0]
		for r, s := range standby {
			if s >= len(topo.NodesInRack(r)) {
				t.Errorf("%s: rack %d has no active node (%d of %d standby)", name, r, s, len(topo.NodesInRack(r)))
			}
			lo, hi = min(lo, s), max(hi, s)
		}
		if hi-lo > 1 {
			t.Errorf("%s: per-rack standby counts %v differ by more than one", name, standby)
		}
	}
	inStandby := func(c *hdfs.Cluster) func(hdfs.DatanodeID) bool {
		set := map[hdfs.DatanodeID]bool{}
		for _, id := range c.Standby() {
			set[id] = true
		}
		return func(id hdfs.DatanodeID) bool { return set[id] }
	}

	for _, size := range []struct{ nodes, racks int }{{18, 3}, {54, 9}, {102, 17}} {
		sys := erms.NewSystem(erms.Options{Nodes: size.nodes, Racks: size.racks})
		c := sys.HDFS()
		check(fmt.Sprintf("facade %d/%d", size.nodes, size.racks), c.Topology(), inStandby(c), 8)
	}
	for _, pool := range []int{8, 6} {
		sys := erms.NewSystem(erms.Options{Nodes: 18, StandbyNodes: pool})
		c := sys.HDFS()
		check(fmt.Sprintf("NewSystem %d+%d", 18-pool, pool), c.Topology(), inStandby(c), pool)
	}

	demo := TraceDemo()
	check("TraceDemo", demo.HDFS().Topology(), demo.Manager().InStandbyPool, 3)

	dur := newDurabilityCluster(sim.NewEngine())
	check("Durability", dur.Topology(), inStandby(dur), 8)
}
