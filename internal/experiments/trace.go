package experiments

import (
	"strconv"
	"time"

	"erms"
	"erms/internal/core"
	"erms/internal/topology"
)

// TraceHotPath is the file whose journey TraceDemo's trace follows end to
// end.
const TraceHotPath = "/data/hot-part-00000"

// TraceDemo builds a small traced ERMS deployment and pushes one hot
// file through the full control loop — access burst, judge verdict,
// Condor job, per-replica transfers, cool-down, standby drain — so the
// recorded span tree exercises every instrumented hop. It is the
// workload behind `figures -fig trace` and the trace tests; everything
// it does is scheduled on the deterministic engine, so two runs produce
// byte-identical exports.
func TraceDemo() *erms.System {
	// 9 active nodes and 3 standby, one per rack. τ_M = 4 with a 1-minute
	// judge period makes the burst below cross the hot threshold on the
	// second pass; ColdAge is pushed out so the demo stays about
	// replication, not erasure coding.
	sys := erms.NewSystem(erms.Options{
		Nodes:        12,
		StandbyNodes: 3,
		Thresholds:   core.Thresholds{TauM: 4, Window: 5 * time.Minute, ColdAge: 24 * time.Hour},
		JudgePeriod:  time.Minute,
		EnableTrace:  true,
	})
	c, e := sys.HDFS(), sys.Engine()
	c.CreateFile(TraceHotPath, 128*MB, 0, 0)
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
			c.ReadFile(client, TraceHotPath, nil)
		})
	}
	// The burst ends at 3 min; by ~9 min the 5-minute window has drained
	// and two consecutive cooled passes reclaim the extra replicas, letting
	// shutdownDrained push the commissioned nodes back to standby.
	e.RunUntil(20 * time.Minute)
	sys.Stop()
	e.Run()
	return sys
}
