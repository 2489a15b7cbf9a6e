// Package experiments regenerates every figure of the ERMS paper's
// evaluation (Figures 3–9; the paper has no numbered tables) plus the
// ablations called out in DESIGN.md. Each harness builds a fresh
// deterministic simulation, runs the paper's workload shape, and returns
// both typed rows (for tests and benchmarks to assert the qualitative
// shape) and a rendered table (for cmd/figures).
package experiments

import (
	"time"

	"erms/internal/core"
	"erms/internal/hdfs"
	"erms/internal/sim"
	"erms/internal/topology"
)

// MB mirrors topology.MB for brevity.
const MB = float64(topology.MB)

// GB mirrors topology.GB.
const GB = float64(topology.GB)

// Testbed mirrors the paper's cluster: 18 datanodes, 3 racks, Gigabit
// network, 64 MB blocks, default replication 3.
type Testbed struct {
	Engine  *sim.Engine
	Cluster *hdfs.Cluster
	Manager *core.Manager // nil for vanilla
}

// NewVanilla builds the baseline: every node active, stock placement, no
// ERMS.
func NewVanilla(nodes int) *Testbed {
	e := sim.NewEngine()
	topo := topology.New(topology.Config{Racks: 3, NodeCount: nodes})
	c := hdfs.New(e, hdfs.Config{Topology: topo})
	return &Testbed{Engine: e, Cluster: c}
}

// NewERMS builds an ERMS deployment with active+standby nodes and the
// given thresholds (zero-valued fields take defaults). Standby nodes are
// taken from the tail of each rack in turn — the paper: "the active nodes
// and standby nodes are both distributed in different racks".
func NewERMS(active, standby int, th core.Thresholds, judgePeriod time.Duration) *Testbed {
	e := sim.NewEngine()
	topo := topology.New(topology.Config{Racks: 3, NodeCount: active + standby})
	pool := SpreadStandby(topo, standby)
	c := hdfs.New(e, hdfs.Config{Topology: topo, StandbyNodes: pool})
	m := core.New(c, core.Config{Thresholds: th, JudgePeriod: judgePeriod})
	return &Testbed{Engine: e, Cluster: c, Manager: m}
}

// SpreadStandby picks `standby` datanodes balanced across racks (from the
// tail of each rack, round-robin).
func SpreadStandby(topo *topology.Topology, standby int) []hdfs.DatanodeID {
	perRack := make([][]topology.NodeID, topo.NumRacks())
	for r := 0; r < topo.NumRacks(); r++ {
		perRack[r] = topo.NodesInRack(r)
	}
	var pool []hdfs.DatanodeID
	for len(pool) < standby {
		progress := false
		for r := 0; r < topo.NumRacks() && len(pool) < standby; r++ {
			nodes := perRack[r]
			if len(nodes) <= 1 { // keep at least one active node per rack
				continue
			}
			last := nodes[len(nodes)-1]
			perRack[r] = nodes[:len(nodes)-1]
			pool = append(pool, hdfs.DatanodeID(last))
			progress = true
		}
		if !progress {
			break
		}
	}
	return pool
}

// BackgroundLoad is a handle over per-node foreground disk load.
type BackgroundLoad struct {
	stops []func()
}

// BackgroundStreamRate is the per-stream cap on foreground disk work
// (15 MB/s — a MapReduce task scanning local data).
const BackgroundStreamRate = 15 * MB

// StartBackgroundLoad puts `perNode` capped foreground read streams on
// every listed datanode's disk (nil means the currently-active set),
// modeling the cluster's ordinary work. Foreground streams consume disk
// bandwidth and session slots but no network, so the experiment's own
// traffic patterns stay interpretable.
func StartBackgroundLoad(tb *Testbed, perNode int, nodes []hdfs.DatanodeID) *BackgroundLoad {
	b := &BackgroundLoad{}
	active := nodes
	if active == nil {
		active = tb.Cluster.Active()
	}
	for _, id := range active {
		b.stops = append(b.stops, tb.Cluster.StartDiskLoad(id, perNode, BackgroundStreamRate))
	}
	return b
}

// Stop ends the background load.
func (b *BackgroundLoad) Stop() {
	for _, s := range b.stops {
		s()
	}
	b.stops = nil
}
