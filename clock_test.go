package erms

import (
	"bytes"
	"os"
	"testing"
	"time"

	"erms/internal/chaos"
	"erms/internal/experiments"
	"erms/internal/hdfs"
	"erms/internal/sim"
	"erms/internal/topology"
)

// seamClock is a pass-through sim.Clock that is not a *sim.Engine: it
// proves every subsystem schedules through the Clock interface (and that
// the indirection changes nothing), not through a concrete engine it
// happens to hold.
type seamClock struct{ *sim.Engine }

// driveCluster runs a small deterministic workload — creates, reads,
// ranged reads, a delete, a node kill under heartbeats — and returns the
// cluster's durable-state digest plus a couple of behavioural counters.
func driveCluster(t *testing.T, clock sim.Clock, engine *sim.Engine) (uint64, hdfs.Metrics) {
	t.Helper()
	topo := topology.New(topology.Config{Racks: 3, NodeCount: 18})
	c := hdfs.New(clock, hdfs.Config{
		Topology: topo,
		Heartbeat: hdfs.HeartbeatConfig{
			Enabled:      true,
			Interval:     3 * time.Second,
			StaleTimeout: 30 * time.Second,
			DeadTimeout:  10 * time.Minute,
		},
	})
	for i := 0; i < 8; i++ {
		if _, err := c.CreateFile(pathN(i), 192*MB, 0, topology.NodeID(i%18)); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	for i := 0; i < 24; i++ {
		c.ReadFile(topology.NodeID(i%18), pathN(i%8), nil)
		c.ReadRange(topology.NodeID((i+1)%18), pathN(i%4), 0, 64*MB, nil)
	}
	engine.RunFor(2 * time.Minute)
	c.Kill(3)
	engine.RunFor(3 * time.Minute)
	if err := c.DeleteFile(pathN(7)); err != nil {
		t.Fatalf("delete: %v", err)
	}
	engine.RunFor(time.Minute)
	return c.StateDigest(), c.Metrics()
}

func pathN(i int) string {
	return "/seam/file-" + string(rune('a'+i))
}

// driveSystem pushes one deterministic workload through a System: the
// caller supplies advance, which moves virtual time forward by d through
// whichever path the mode under test uses (RunFor, or wall-clock Advance
// plus CatchUp in service mode).
func driveSystem(t *testing.T, sys *System, advance func(d time.Duration)) (uint64, string) {
	t.Helper()
	for i := 0; i < 6; i++ {
		if err := sys.CreateFile(pathN(i), 256*MB); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	advance(30 * time.Second)
	for round := 0; round < 6; round++ {
		for i := 0; i < 12; i++ {
			sys.Read(i%18, pathN(i%3), nil)
		}
		sys.ReadRange(2, pathN(4), 0, 96*MB, nil)
		advance(2 * time.Minute)
	}
	if err := sys.Delete(pathN(5)); err != nil {
		t.Fatalf("delete: %v", err)
	}
	advance(5 * time.Minute)
	sys.Stop()
	var prom bytes.Buffer
	if err := sys.Registry().WritePrometheus(&prom); err != nil {
		t.Fatalf("prometheus snapshot: %v", err)
	}
	return sys.StateDigest(), prom.String()
}

// TestClockSeamEquivalence is the Clock-seam gate: scheduling through the
// seam must be byte-identical to scheduling on the engine directly, a
// service-mode System paced by a simulated wall clock must be
// byte-identical to the same System driven by RunFor, and the committed
// fig3a output (generated before the seam landed, and verified unchanged
// across the refactor) must still reproduce exactly.
func TestClockSeamEquivalence(t *testing.T) {
	t.Run("hdfs-through-seam", func(t *testing.T) {
		e1 := sim.NewEngine()
		d1, m1 := driveCluster(t, e1, e1)
		e2 := sim.NewEngine()
		d2, m2 := driveCluster(t, seamClock{e2}, e2)
		if d1 != d2 {
			t.Fatalf("state digests diverged: engine-direct %x vs through-seam %x", d1, d2)
		}
		if m1 != m2 {
			t.Fatalf("metrics diverged:\n direct: %+v\n seam:   %+v", m1, m2)
		}
	})

	t.Run("storm-digest-through-seam", func(t *testing.T) {
		// The timers the seam threads — heartbeats and the safe-mode
		// monitor — under a seeded failure storm: the storm digest
		// through the seam must equal the direct run.
		runStorm := func(clock sim.Clock, engine *sim.Engine) (uint64, hdfs.Metrics) {
			topo := topology.New(topology.Config{Racks: 3, NodeCount: 18})
			c := hdfs.New(clock, hdfs.Config{
				Topology: topo,
				Heartbeat: hdfs.HeartbeatConfig{
					Enabled:      true,
					Interval:     3 * time.Second,
					StaleTimeout: 30 * time.Second,
					DeadTimeout:  2 * time.Minute,
				},
				SafeMode: hdfs.SafeModeConfig{Enabled: true},
			})
			for i := 0; i < 10; i++ {
				if _, err := c.CreateFile(pathN(i), 128*MB, 0, topology.NodeID(i%18)); err != nil {
					t.Fatalf("create %d: %v", i, err)
				}
			}
			var nodes []hdfs.DatanodeID
			for _, d := range c.Datanodes() {
				nodes = append(nodes, d.ID)
			}
			plan := chaos.Storm(chaos.StormConfig{
				Seed: 42, Duration: 10 * time.Minute, Nodes: nodes,
				Crashes: 3, Downtime: 90 * time.Second, MaxConcurrentDown: 2,
				Corruptions: 2, FlapNodes: 1,
			})
			plan.Schedule(engine, c)
			engine.RunFor(20 * time.Minute)
			return c.StateDigest(), c.Metrics()
		}
		e1 := sim.NewEngine()
		d1, m1 := runStorm(e1, e1)
		e2 := sim.NewEngine()
		d2, m2 := runStorm(seamClock{e2}, e2)
		if d1 != d2 {
			t.Fatalf("storm digests diverged: engine-direct %x vs through-seam %x", d1, d2)
		}
		if m1 != m2 {
			t.Fatalf("storm metrics diverged:\n direct: %+v\n seam:   %+v", m1, m2)
		}
	})

	t.Run("service-mode-sim-clock", func(t *testing.T) {
		opts := Options{
			Heartbeat: HeartbeatConfig{
				Enabled:      true,
				Interval:     3 * time.Second,
				StaleTimeout: 30 * time.Second,
				DeadTimeout:  10 * time.Minute,
			},
		}
		simSys := NewSystem(opts)
		simDigest, simProm := driveSystem(t, simSys, simSys.RunFor)

		// The service-mode twin runs on a wall clock backed by a private
		// engine: advancing the wall and calling CatchUp is exactly what
		// the HTTP control plane's pump does between requests.
		wall := sim.NewSimClock(sim.NewEngine())
		liveOpts := opts
		liveOpts.Clock = wall
		liveSys := NewSystem(liveOpts)
		liveDigest, liveProm := driveSystem(t, liveSys, func(d time.Duration) {
			wall.Advance(d)
			liveSys.CatchUp()
		})

		if simDigest != liveDigest {
			t.Fatalf("state digests diverged: sim %x vs service-mode %x", simDigest, liveDigest)
		}
		if simProm != liveProm {
			t.Fatalf("metrics snapshots diverged:\nsim:\n%s\nservice-mode:\n%s", simProm, liveProm)
		}
	})

	t.Run("fig3a-golden", func(t *testing.T) {
		if testing.Short() {
			t.Skip("fig3a render takes a few seconds")
		}
		want, err := os.ReadFile("testdata/fig3a_quick.golden")
		if err != nil {
			t.Fatalf("reading golden: %v", err)
		}
		rows := experiments.Fig3(experiments.Fig3Config{
			Seed: 1, Duration: 45 * time.Minute, Files: 16,
		})
		got := experiments.Fig3Table(rows).String() + "\n"
		if !bytes.Equal([]byte(got), want) {
			t.Fatalf("fig3a output changed from the pre-seam golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
		}
	})
}
