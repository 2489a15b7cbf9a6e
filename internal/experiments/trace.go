package experiments

import (
	"strconv"
	"time"

	"erms/internal/core"
	"erms/internal/hdfs"
	"erms/internal/metrics"
	"erms/internal/sim"
	"erms/internal/topology"
	"erms/internal/trace"
)

// TraceDemoResult bundles the traced deployment TraceDemo drove.
type TraceDemoResult struct {
	Testbed  *Testbed
	Tracer   *trace.Tracer
	Registry *metrics.Registry
	// HotPath is the file whose journey the trace follows end to end.
	HotPath string
}

// TraceDemo builds a small traced ERMS deployment and pushes one hot
// file through the full control loop — access burst, judge verdict,
// Condor job, per-replica transfers, cool-down, standby drain — so the
// recorded span tree exercises every instrumented hop. It is the
// workload behind `figures -fig trace`, `ermsctl trace`, and the
// golden-trace regression test; everything it does is scheduled on the
// deterministic engine, so two runs produce byte-identical exports.
func TraceDemo() *TraceDemoResult {
	e := sim.NewEngine()
	topo := topology.New(topology.Config{Racks: 3, NodeCount: 12})
	pool := SpreadStandby(topo, 3)
	c := hdfs.New(e, hdfs.Config{Topology: topo, StandbyNodes: pool})
	tr := trace.New(e.Now)
	c.SetTracer(tr)
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)
	// τ_M = 4 with a 1-minute judge period makes the burst below cross the
	// hot threshold on the second pass; ColdAge is pushed out so the demo
	// stays about replication, not erasure coding.
	th := core.Thresholds{TauM: 4, Window: 5 * time.Minute, ColdAge: 24 * time.Hour}
	m := core.New(c, core.Config{Thresholds: th, JudgePeriod: time.Minute, Registry: reg})
	tb := &Testbed{Engine: e, Cluster: c, Manager: m}

	const hot = "/data/hot-part-00000"
	c.CreateFile(hot, 128*MB, 0, 0)
	for i := 0; i < 4; i++ {
		c.CreateFile("/data/cold-"+strconv.Itoa(i), 256*MB, 0, topology.NodeID(i))
	}
	// Access burst: 36 whole-file reads over the first three minutes from
	// rotating clients. At r = 3 the per-replica rate passes τ_M after two
	// judge ticks, triggering a replication increase (and a standby
	// commission, since the nine active nodes already hold three replicas).
	for i := 0; i < 36; i++ {
		client := topology.NodeID(i % 9)
		e.Schedule(time.Duration(i)*5*time.Second, func() {
			c.ReadFile(client, hot, nil)
		})
	}
	// The burst ends at 3 min; by ~9 min the 5-minute window has drained
	// and two consecutive cooled passes reclaim the extra replicas, letting
	// shutdownDrained push the commissioned nodes back to standby.
	e.RunUntil(20 * time.Minute)
	m.Stop()
	e.Run()
	return &TraceDemoResult{Testbed: tb, Tracer: tr, Registry: reg, HotPath: hot}
}
