package invariant_test

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"erms/internal/auditlog"
	"erms/internal/chaos"
	"erms/internal/core"
	"erms/internal/experiments"
	"erms/internal/hdfs"
	"erms/internal/invariant"
	"erms/internal/sim"
	"erms/internal/sweep"
	"erms/internal/topology"
	"erms/internal/workload"
)

// stormScenario picks the production-shaped backdrop for a storm seed:
// every third seed replays a scenario trace (rotating through the suite)
// instead of the inline random read mix, so the oracles also hold under
// tenant contention, diurnal swings, flash crowds, and pread-only traffic.
// Vanilla seeds keep the random mix: the scenarios exist to exercise the
// judge and the ranged-read path under failures.
func stormScenario(seed int64, vanilla bool) string {
	if vanilla || seed%3 != 0 {
		return ""
	}
	names := workload.ScenarioNames()
	return names[int(seed/3)%len(names)]
}

// stormSeed narrows the storm grid to one seed for reproduction:
//
//	go test ./internal/invariant/ -run TestRandomizedWorkloadStorm -storm-seed=7 -v
var stormSeed = flag.Int64("storm-seed", 0, "run a single storm seed instead of the full grid")

// TestRandomizedWorkloadStorm is the property suite: 25 seeds, each a
// random workload (creates, reads, replication changes, deletes) crossed
// with a random failure storm (kills with later restarts, spaced so
// re-replication can keep up and no block legitimately loses every copy),
// with every oracle checked continuously. The seeds fan out across cores
// on the sweep engine — each cell is its own deterministic simulation —
// and any violation reports the seed and the exact reproduction command.
func TestRandomizedWorkloadStorm(t *testing.T) {
	var seeds []int64
	if *stormSeed != 0 {
		seeds = []int64{*stormSeed}
	} else {
		for s := int64(1); s <= 25; s++ {
			seeds = append(seeds, s)
		}
	}
	grid := sweep.Grid{Seeds: seeds}
	points := grid.Points()
	type outcome struct {
		checks     int
		violations []invariant.Violation
	}
	outcomes := make([]outcome, len(points))
	tasks := make([]sweep.Task, len(points))
	for i, p := range points {
		i, p := i, p
		tasks[i] = sweep.Task{
			Name: grid.Label(p),
			Run: func(ctx context.Context) (string, error) {
				checks, viols, err := runStorm(p.Seed)
				if err != nil {
					return "", err
				}
				outcomes[i] = outcome{checks: checks, violations: viols}
				return fmt.Sprintf("seed=%d: %d sweeps, %d violations\n",
					p.Seed, checks, len(viols)), nil
			},
		}
	}
	results, err := sweep.Run(context.Background(), sweep.Options{}, tasks)
	if err != nil {
		t.Fatalf("storm grid: %v", err)
	}
	t.Logf("storm grid:\n%s", sweep.Merged(results))
	for i, p := range points {
		o := outcomes[i]
		if o.checks < 10 {
			t.Errorf("seed %d: watcher ran only %d sweeps", p.Seed, o.checks)
		}
		for _, v := range o.violations {
			t.Errorf("seed %d: %s", p.Seed, v)
		}
		if len(o.violations) > 0 || o.checks < 10 {
			t.Logf("reproduce: go test ./internal/invariant/ -run TestRandomizedWorkloadStorm -storm-seed=%d -v", p.Seed)
		}
	}
}

// runStorm executes one seed's workload-plus-failure storm and returns the
// oracle outcome. It asserts nothing itself so the sweep engine can run
// many seeds concurrently; the caller turns violations into test failures.
func runStorm(seed int64) (checks int, violations []invariant.Violation, err error) {
	rng := rand.New(rand.NewSource(seed))

	// Mix deployments: most seeds exercise the full ERMS stack (judge,
	// condor, energy pool); every fifth runs vanilla HDFS so the oracles
	// also guard the baseline paths.
	var tb *experiments.Testbed
	var total int
	vanilla := seed%5 == 0
	if vanilla {
		total = 12 + rng.Intn(8)
		tb = experiments.NewVanilla(total)
	} else {
		active, standby := 12+rng.Intn(6), 3+rng.Intn(4)
		total = active + standby
		tb = experiments.NewERMS(active, standby, core.Thresholds{}, 2*time.Minute)
	}
	c, e := tb.Cluster, tb.Engine
	// Journal every mutation so the watcher's replay oracle re-commissions
	// a standby from baseline + tail at every tick.
	c.SetJournal(auditlog.NewJournal())

	target := invariant.Target{
		Cluster:        c,
		Manager:        tb.Manager,
		MaxReplication: core.DefaultThresholds().MaxReplication,
		// Vanilla HDFS has no repair agent: repeated kills legitimately
		// erode replicas, so only the ERMS runs assert durability.
		AllowDataLoss: vanilla,
		CheckRestore:  true,
		NewShadow: func(e2 *sim.Engine) *hdfs.Cluster {
			return hdfs.New(e2, hdfs.Config{Topology: topology.New(topology.Config{Racks: 3, NodeCount: total})})
		},
	}
	w := invariant.Watch(e, 15*time.Second, target)

	// Workload: a namespace of small files, then random reads, target
	// changes, and deletes across half an hour of virtual time.
	nFiles := 20 + rng.Intn(20)
	paths := make([]string, 0, nFiles)
	for i := 0; i < nFiles; i++ {
		p := fmt.Sprintf("/storm/f%02d", i)
		size := (32 + float64(rng.Intn(192))) * experiments.MB
		if _, cerr := c.CreateFile(p, size, 3, -1); cerr != nil {
			return 0, nil, fmt.Errorf("seed %d: create %s: %w", seed, p, cerr)
		}
		paths = append(paths, p)
	}
	horizon := 30 * time.Minute
	// Scenario backdrop: selected seeds overlay a production-shaped trace —
	// tenant Zipf mixes, diurnal swings, a flash crowd, or pure preads — on
	// top of the random churn, so the durability/consistency oracles also
	// hold while the judge is reacting to realistic traffic.
	if scn := stormScenario(seed, vanilla); scn != "" {
		trace, serr := workload.SynthesizeScenario(scn, seed, horizon-5*time.Minute)
		if serr != nil {
			return 0, nil, fmt.Errorf("seed %d: scenario %s: %w", seed, scn, serr)
		}
		workload.Preload(e, c, trace)
		workload.ReplayReads(e, c, trace, nil)
	}
	for i := 0; i < 150; i++ {
		at := time.Duration(rng.Int63n(int64(horizon)))
		p := paths[rng.Intn(len(paths))]
		switch rng.Intn(10) {
		case 0: // replication target change: >= 2 so one dead node can
			// never hold the last copy, and within the judge's clamp
			n := 2 + rng.Intn(4)
			e.Schedule(at, func() {
				if c.File(p) != nil {
					c.SetReplication(p, n, hdfs.WholeAtOnce, nil)
				}
			})
		case 1: // delete (at most a few land; most paths keep existing)
			if rng.Intn(4) == 0 {
				e.Schedule(at, func() {
					if c.File(p) != nil {
						_ = c.DeleteFile(p)
					}
				})
			}
		default: // read from a random client node
			client := topology.NodeID(rng.Intn(c.NumDatanodes()))
			e.Schedule(at, func() {
				if c.File(p) != nil {
					c.ReadFile(client, p, nil)
				}
			})
		}
	}

	// Storm: sequential kill/restart pairs, each node down for under a
	// minute and kills spaced two minutes apart — far longer than repair
	// needs, so durability must hold throughout.
	at := time.Duration(rng.Int63n(int64(2 * time.Minute)))
	for at < horizon-3*time.Minute {
		id := hdfs.DatanodeID(rng.Intn(c.NumDatanodes()))
		down := 15*time.Second + time.Duration(rng.Int63n(int64(45*time.Second)))
		killAt, restartAt := at, at+down
		e.Schedule(killAt, func() { c.Kill(id) })
		e.Schedule(restartAt, func() { c.Restart(id) })
		at = restartAt + 2*time.Minute + time.Duration(rng.Int63n(int64(time.Minute)))
	}

	e.RunUntil(horizon)
	if tb.Manager != nil {
		tb.Manager.Stop()
	}
	w.Stop()
	return w.Checks(), w.Violations(), nil
}

// TestRestoreOracle exercises the restore-equivalence oracle standalone:
// a healthy cluster passes both the round-trip and replay checks, and the
// misconfigurations the oracle guards against are reported, not fatal.
func TestRestoreOracle(t *testing.T) {
	tb := experiments.NewVanilla(9)
	c, e := tb.Cluster, tb.Engine
	c.SetJournal(auditlog.NewJournal())
	shadow := func(e2 *sim.Engine) *hdfs.Cluster {
		return hdfs.New(e2, hdfs.Config{Topology: topology.New(topology.Config{Racks: 3, NodeCount: 9})})
	}
	w := invariant.Watch(e, 30*time.Second, invariant.Target{
		Cluster: c, CheckRestore: true, NewShadow: shadow,
	})
	for i := 0; i < 4; i++ {
		if _, err := c.CreateFile(fmt.Sprintf("/r/f%d", i), 96*experiments.MB, 3, -1); err != nil {
			t.Fatal(err)
		}
	}
	e.Schedule(time.Minute, func() { c.SetReplication("/r/f0", 4, hdfs.WholeAtOnce, nil) })
	e.Schedule(2*time.Minute, func() { _ = c.DeleteFile("/r/f3") })
	e.RunUntil(5 * time.Minute)
	w.Stop()
	if viols := w.Violations(); len(viols) != 0 {
		t.Fatalf("healthy run reported: %v", viols)
	}
	if w.Checks() < 5 {
		t.Fatalf("watcher ran only %d sweeps", w.Checks())
	}

	// CheckRestore without a shadow factory is a reported misuse.
	if errs := invariant.Check(invariant.Target{Cluster: c, CheckRestore: true}); len(errs) != 1 {
		t.Fatalf("missing NewShadow reported %v", errs)
	}
	// A shadow factory with the wrong durable config fails the restore.
	wrong := func(e2 *sim.Engine) *hdfs.Cluster {
		return hdfs.New(e2, hdfs.Config{Topology: topology.New(topology.Config{Racks: 3, NodeCount: 12})})
	}
	errs := invariant.Check(invariant.Target{Cluster: c, CheckRestore: true, NewShadow: wrong})
	if len(errs) != 1 {
		t.Fatalf("mismatched shadow reported %v", errs)
	}
}

// TestWatcherCatchesDataLoss proves the oracle actually fires: a
// single-replica file whose only holder dies (no repair possible) must
// surface as a durability violation — recorded once, not once per sweep —
// and both the ticker path and the final Stop sweep must report it.
func TestWatcherCatchesDataLoss(t *testing.T) {
	tb := experiments.NewVanilla(6)
	c, e := tb.Cluster, tb.Engine
	if _, err := c.CreateFile("/v", 64*experiments.MB, 1, -1); err != nil {
		t.Fatal(err)
	}
	w := invariant.Watch(e, 0, invariant.Target{Cluster: c}) // 0 → default period
	holder := c.Replicas(c.File("/v").Blocks[0])[0]
	e.Schedule(time.Minute, func() { c.Kill(holder) })
	e.RunUntil(5 * time.Minute)
	w.Stop()

	viols := w.Violations()
	if len(viols) == 0 {
		t.Fatal("lost block produced no violation")
	}
	for _, v := range viols {
		if v.String() == "" || v.At == 0 {
			t.Errorf("malformed violation %+v", v)
		}
	}
	msgs := map[string]int{}
	for _, v := range viols {
		msgs[v.Msg]++
	}
	for m, n := range msgs {
		if n > 1 {
			t.Errorf("violation recorded %d times: %s", n, m)
		}
	}
	if direct := invariant.Check(invariant.Target{Cluster: c}); len(direct) == 0 {
		t.Error("direct Check missed the lost block")
	}
	if none := invariant.Check(invariant.Target{Cluster: c, AllowDataLoss: true}); len(none) != 0 {
		t.Errorf("AllowDataLoss still reported: %v", none)
	}
}

// TestCheckMidEncode: between EncodeFile registering a stripe's parity
// blocks and their transfers landing, the parities hold no replica and the
// file is not Encoded yet. That is an encode in flight, not data loss —
// every oracle must stay quiet through it and after it.
func TestCheckMidEncode(t *testing.T) {
	tb := experiments.NewVanilla(18)
	c, e := tb.Cluster, tb.Engine
	if _, err := c.CreateFile("/cold/a", 640*experiments.MB, 3, -1); err != nil {
		t.Fatal(err)
	}
	c.EncodeFile("/cold/a", 10, 4, nil)
	if f := c.File("/cold/a"); f.Encoded || len(f.Parity) != 4 || len(c.Replicas(f.Parity[0])) != 0 {
		t.Fatalf("not mid-encode: encoded=%v parities=%v", f.Encoded, f.Parity)
	}
	if errs := invariant.Check(invariant.Target{Cluster: c}); errs != nil {
		t.Errorf("mid-encode: %v", errs)
	}
	e.RunFor(30 * time.Minute)
	if !c.File("/cold/a").Encoded {
		t.Fatal("encode never finished")
	}
	if errs := invariant.Check(invariant.Target{Cluster: c}); errs != nil {
		t.Errorf("after encode: %v", errs)
	}
}

// TestDegradedStormSuite is the correlated-failure property suite: 25
// seeds, each crossing a foreground workload with node-crash windows,
// heartbeat flapping, silent corruption, and two zombie-primary drills in
// the first half of the run, then a correlated whole-rack outage long
// enough for the namenode to declare the rack dead — tripping safe mode —
// followed by the power coming back. Heartbeats, safe mode, journal-epoch
// fencing, and the throttled repair pipeline are all on, and every oracle
// (including the safemode/epoch/repair-cap ones) is checked continuously.
// The crash and outage windows are temporally disjoint by construction:
// with two-rack placement a rack outage can take 2 of 3 replicas, so an
// overlapping crash could legitimately kill the last copy, which is a
// different (allowed-loss) experiment.
func TestDegradedStormSuite(t *testing.T) {
	var seeds []int64
	if *stormSeed != 0 {
		seeds = []int64{*stormSeed}
	} else {
		for s := int64(1); s <= 25; s++ {
			seeds = append(seeds, s)
		}
	}
	grid := sweep.Grid{Seeds: seeds}
	points := grid.Points()
	outcomes := make([]degradedOutcome, len(points))
	tasks := make([]sweep.Task, len(points))
	for i, p := range points {
		i, p := i, p
		tasks[i] = sweep.Task{
			Name: grid.Label(p),
			Run: func(ctx context.Context) (string, error) {
				o, err := runDegradedStorm(p.Seed)
				if err != nil {
					return "", err
				}
				outcomes[i] = o
				return fmt.Sprintf("seed=%d: %d sweeps, %d violations, safemode %d/%d, deferred %d, throttled %d, fenced %d\n",
					p.Seed, o.checks, len(o.violations), o.safeModeEntries, o.safeModeExits,
					o.deferred, o.throttled, o.fencedRejected), nil
			},
		}
	}
	results, err := sweep.Run(context.Background(), sweep.Options{}, tasks)
	if err != nil {
		t.Fatalf("degraded storm grid: %v", err)
	}
	t.Logf("degraded storm grid:\n%s", sweep.Merged(results))
	for i, p := range points {
		o := outcomes[i]
		bad := false
		fail := func(format string, args ...any) {
			t.Errorf("seed %d: %s", p.Seed, fmt.Sprintf(format, args...))
			bad = true
		}
		for _, v := range o.violations {
			fail("%s", v)
		}
		if o.checks < 10 {
			fail("watcher ran only %d sweeps", o.checks)
		}
		if o.safeModeEntries < 1 || o.safeModeExits < 1 {
			fail("safe mode entered %d / exited %d times, want >= 1 each", o.safeModeEntries, o.safeModeExits)
		}
		if o.inSafeMode {
			fail("still in safe mode at the horizon")
		}
		if o.deferred < 1 {
			fail("no repairs were deferred during safe mode (deferred=%d)", o.deferred)
		}
		if o.throttled < 1 {
			fail("no repairs were throttled by the stream cap (throttled=%d)", o.throttled)
		}
		if o.zombies != 2 {
			fail("%d zombie-primary drills applied, want 2", o.zombies)
		}
		if o.fencedRejected != 2*o.zombies {
			fail("%d fenced writes rejected, want %d (2 per zombie)", o.fencedRejected, 2*o.zombies)
		}
		if o.fencedApplied != 0 {
			fail("%d fenced writes applied, want 0", o.fencedApplied)
		}
		if o.recoverableLost != 0 {
			fail("%d recoverable blocks lost across failovers, want 0", o.recoverableLost)
		}
		if o.failoverErrs != 0 {
			fail("%d failovers errored or diverged", o.failoverErrs)
		}
		if bad {
			t.Logf("reproduce: go test ./internal/invariant/ -run TestDegradedStormSuite -storm-seed=%d -v", p.Seed)
		}
	}
}

type degradedOutcome struct {
	checks          int
	violations      []invariant.Violation
	safeModeEntries int
	safeModeExits   int
	inSafeMode      bool
	deferred        int
	throttled       int
	zombies         int
	fencedRejected  int
	fencedApplied   int
	recoverableLost int
	failoverErrs    int
}

// shiftPlan offsets every event of a plan by delta, so independently
// generated storm phases can be composed on one timeline.
func shiftPlan(p *chaos.Plan, delta time.Duration) *chaos.Plan {
	out := &chaos.Plan{Events: make([]chaos.Event, len(p.Events))}
	copy(out.Events, p.Events)
	for i := range out.Events {
		out.Events[i].At += delta
	}
	return out
}

// runDegradedStorm executes one seed of the degraded suite.
func runDegradedStorm(seed int64) (degradedOutcome, error) {
	rng := rand.New(rand.NewSource(seed))
	const nodes, racks = 18, 3
	e := sim.NewEngine()
	mk := func(e2 *sim.Engine) *hdfs.Cluster {
		return hdfs.New(e2, hdfs.Config{Topology: topology.New(topology.Config{Racks: racks, NodeCount: nodes})})
	}
	c := hdfs.New(e, hdfs.Config{
		Topology:  topology.New(topology.Config{Racks: racks, NodeCount: nodes}),
		Heartbeat: hdfs.HeartbeatConfig{Enabled: true, DeadTimeout: 2 * time.Minute},
		SafeMode:  hdfs.SafeModeConfig{Enabled: true, NodeThreshold: 0.75, Dwell: time.Minute},
	})
	c.SetJournal(auditlog.NewJournal())
	m := core.New(c, core.Config{
		Thresholds:  core.Thresholds{},
		JudgePeriod: 2 * time.Minute,
		Repair:      core.RepairConfig{MaxStreams: 4, MaxStreamsPerNode: 2},
		Scrub:       hdfs.ScrubConfig{Period: time.Minute},
	})
	fo, err := chaos.NewFailover(chaos.FailoverConfig{
		Engine: e, Cluster: c, NewStandby: mk, Interval: 5 * time.Minute,
		Audit: func(standby *hdfs.Cluster) []string {
			return invariant.Check(invariant.Target{Cluster: standby, AllowDataLoss: true})
		},
	})
	if err != nil {
		return degradedOutcome{}, fmt.Errorf("seed %d: failover: %w", seed, err)
	}
	w := invariant.Watch(e, 15*time.Second, invariant.Target{
		Cluster: c, Manager: m,
		MaxReplication: core.DefaultThresholds().MaxReplication,
		CheckRestore:   true, NewShadow: mk,
	})

	// Workload: two-block files plus a read mix across the half hour.
	const horizon = 30 * time.Minute
	nFiles := 10 + rng.Intn(6)
	paths := make([]string, 0, nFiles)
	for i := 0; i < nFiles; i++ {
		p := fmt.Sprintf("/deg/f%02d", i)
		if _, cerr := c.CreateFile(p, 256*experiments.MB, 3, -1); cerr != nil {
			return degradedOutcome{}, fmt.Errorf("seed %d: create %s: %w", seed, p, cerr)
		}
		paths = append(paths, p)
	}
	for i := 0; i < 80; i++ {
		at := time.Duration(rng.Int63n(int64(horizon)))
		p := paths[rng.Intn(len(paths))]
		client := topology.NodeID(rng.Intn(nodes))
		e.Schedule(at, func() {
			if c.File(p) != nil {
				c.ReadFile(client, p, nil)
			}
		})
	}
	// Scenario backdrop: every other seed layers a production-shaped trace
	// over the degraded cluster, so safe mode, throttled repair, and fencing
	// are exercised while tenants contend and preads hammer single blocks —
	// not only under the uniform read mix above. Reads that land inside the
	// rack outage are expected to fail; no outcome assertion counts them.
	if seed%2 == 0 {
		names := workload.ScenarioNames()
		scn := names[int(seed/2)%len(names)]
		trace, serr := workload.SynthesizeScenario(scn, seed, horizon-5*time.Minute)
		if serr != nil {
			return degradedOutcome{}, fmt.Errorf("seed %d: scenario %s: %w", seed, scn, serr)
		}
		workload.Preload(e, c, trace)
		workload.ReplayReads(e, c, trace, nil)
	}

	// Phase 1 ([0, ~13m]): crashes shorter than the dead timeout, heartbeat
	// flapping, silent corruption, and two zombie-primary drills.
	var all []hdfs.DatanodeID
	for _, d := range c.Datanodes() {
		all = append(all, d.ID)
	}
	phase1 := chaos.Storm(chaos.StormConfig{
		Seed: seed, Duration: 12 * time.Minute, Nodes: all,
		Crashes: 3, Downtime: 90 * time.Second, MaxConcurrentDown: 1,
		Corruptions: 2, FlapNodes: 2, ZombiePrimaries: 2,
	})
	// Phase 2 (from 18m, disjoint from every phase-1 window): one correlated
	// rack outage lasting well past the dead timeout, then power-on.
	phase2 := shiftPlan(chaos.Storm(chaos.StormConfig{
		Seed: seed + 7919, Duration: time.Minute, Racks: []int{0, 1, 2},
		RackOutages: 1, RackOutageFor: 4 * time.Minute,
	}), 18*time.Minute)
	plan := &chaos.Plan{
		Events:   append(append([]chaos.Event{}, phase1.Events...), phase2.Events...),
		Failover: fo,
	}
	rep := plan.Schedule(e, c)

	e.RunUntil(horizon)
	m.Stop()
	fo.Stop()
	w.Stop()

	hm := c.Metrics()
	st := m.Stats()
	o := degradedOutcome{
		checks:          w.Checks(),
		violations:      w.Violations(),
		safeModeEntries: hm.SafeModeEntries,
		safeModeExits:   hm.SafeModeExits,
		inSafeMode:      c.InSafeMode(),
		deferred:        st.RepairsDeferred,
		throttled:       st.RepairsThrottled,
		zombies:         rep.PerKind["zombie-primary"],
		fencedApplied:   hm.FencedWritesApplied,
	}
	for _, r := range fo.Results() {
		o.recoverableLost += r.RecoverableLost
		o.fencedRejected += r.FencedRejected
		o.fencedApplied += r.FencedApplied
		if r.Err != nil || !r.DigestMatch || !r.ConsistencyOK {
			o.failoverErrs++
		}
	}
	return o, nil
}
