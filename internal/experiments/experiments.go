// Package experiments regenerates every figure of the ERMS paper's
// evaluation (Figures 3–9; the paper has no numbered tables) plus the
// ablations called out in DESIGN.md. Each harness builds a fresh
// deterministic deployment through erms.NewSystem (a few wire hdfs and
// core themselves for a knob the facade does not export), runs the
// paper's workload shape, and returns
// both typed rows (for tests and benchmarks to assert the qualitative
// shape) and a rendered table (for cmd/figures).
package experiments

import (
	"erms"
	"erms/internal/hdfs"
	"erms/internal/topology"
)

// MB mirrors topology.MB for brevity.
const MB = float64(topology.MB)

// GB mirrors topology.GB.
const GB = float64(topology.GB)

// BackgroundLoad is a handle over per-node foreground disk load.
type BackgroundLoad struct {
	stops []func()
}

// BackgroundStreamRate is the per-stream cap on foreground disk work
// (15 MB/s — a MapReduce task scanning local data).
const BackgroundStreamRate = 15 * MB

// StartBackgroundLoad puts `perNode` capped foreground read streams on
// every listed datanode's disk, modeling the cluster's ordinary work.
// Foreground streams consume disk bandwidth and session slots but no
// network, so the experiment's own traffic patterns stay interpretable.
func StartBackgroundLoad(c *hdfs.Cluster, perNode int, nodes []hdfs.DatanodeID) *BackgroundLoad {
	b := &BackgroundLoad{}
	for _, id := range nodes {
		b.stops = append(b.stops, c.StartDiskLoad(id, perNode, BackgroundStreamRate))
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

// await starts an operation on sys and steps the engine until the
// operation reports done. An error or an engine that drains first is a
// harness bug, so both panic.
func await(sys *erms.System, start func(done func(error))) {
	finished := false
	start(func(err error) {
		if err != nil {
			panic(err)
		}
		finished = true
	})
	for !finished {
		if !sys.Engine().Step() {
			panic("experiments: operation never completed")
		}
	}
}
