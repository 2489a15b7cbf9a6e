package core

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"erms/internal/chaos"
	"erms/internal/condor"
	"erms/internal/hdfs"
	"erms/internal/sim"
	"erms/internal/topology"
	"erms/internal/workload"
)

// chaosOutcome captures everything a chaos soak run produced, in a form
// that can be both asserted on and compared byte-for-byte across runs.
type chaosOutcome struct {
	report    chaos.Report
	stats     Stats
	sched     condor.Stats
	running   int
	pending   int
	condorLog string
	metrics   hdfs.Metrics
	digest    uint64
	lost      int
	under     int
	readsOK   int
	readsBad  int
}

// runChaosStorm drives a full ERMS deployment (heartbeat detection,
// scrubbing, Condor retries) through a seeded fault storm — crashes,
// rack partitions healed within DeadTimeout, silent corruption, slow
// nodes — plus a heavy-tailed read workload, then runs to quiescence.
// Consistency invariants are checked inside when t is non-nil.
func runChaosStorm(t *testing.T, seed int64, dur time.Duration) chaosOutcome {
	e := sim.NewEngine()
	topo := topology.New(topology.Config{})
	h := hdfs.New(e, hdfs.Config{
		Topology:     topo,
		StandbyNodes: hdfs.SpreadStandby(topo, 8),
		Heartbeat: hdfs.HeartbeatConfig{
			Enabled:      true,
			Interval:     3 * time.Second,
			StaleTimeout: 30 * time.Second,
			DeadTimeout:  4 * time.Minute,
		},
	})
	m := New(h, Config{
		Thresholds:  Thresholds{TauM: 6, Window: 5 * time.Minute, ColdAge: 90 * time.Minute},
		JudgePeriod: 5 * time.Minute,
		Scrub:       hdfs.ScrubConfig{Period: 20 * time.Second, BlocksPerScan: 100},
	})

	trace := workload.Synthesize(workload.Config{
		Seed:             seed,
		Duration:         dur * 2 / 3, // quiet tail lets cold data encode
		NumFiles:         16,
		MeanInterarrival: 10 * time.Second,
		MaxFileSize:      512 * mb,
	})
	workload.Preload(e, h, trace)
	out := chaosOutcome{}
	workload.ReplayReads(e, h, trace, func(r *hdfs.ReadResult) {
		if r.Err != nil {
			out.readsBad++
		} else {
			out.readsOK++
		}
	})

	// The storm: ≥6 crashes, rack partitions that heal inside DeadTimeout
	// (2m mean, ≤3m jittered, vs 4m dead), ≥10 corruptions, slow nodes.
	// The storm hits always-active nodes only: crashing a powered-down
	// standby node is a no-op.
	plan := chaos.Storm(chaos.StormConfig{
		Seed:        seed + 100,
		Duration:    dur,
		Nodes:       h.Active(),
		Racks:       []int{0, 1, 2},
		Crashes:     8,
		Downtime:    8 * time.Minute,
		Partitions:  2,
		Corruptions: 14,
		SlowNodes:   2,
	})
	rep := plan.Schedule(e, h)

	e.RunUntil(dur)
	e.RunFor(45 * time.Minute) // quiescence: retries, rescans, encodes drain
	m.Stop()

	out.report = *rep
	out.stats = m.Stats()
	out.sched = m.Scheduler().Stats()
	out.running = m.Scheduler().Running()
	out.pending = m.Scheduler().Pending()
	var sb strings.Builder
	for _, ev := range m.Scheduler().Log() {
		sb.WriteString(ev.String())
		sb.WriteByte('\n')
	}
	out.condorLog = sb.String()
	out.metrics = h.Metrics()
	out.digest = h.StateDigest()
	out.lost = len(h.UnrecoverableBlocks())
	for _, bid := range h.UnderReplicated() {
		if b, _ := h.Block(bid); !b.Parity {
			out.under++
		}
	}

	if t != nil {
		checkClusterConsistency(t, h)
		// The user log alone must reconstruct every job's final state —
		// the paper's replayability claim, under six hours of faults.
		states := condor.ReconstructStates(m.Scheduler().Log())
		for _, j := range m.Scheduler().Jobs() {
			if got := states[j.ID]; got != j.State {
				t.Errorf("job %d (%s): replay says %s, actual %s", j.ID, j.Name, got, j.State)
			}
		}
	}
	return out
}

// checkClusterConsistency verifies replica/node-set agreement across the
// whole namespace.
func checkClusterConsistency(t *testing.T, h *hdfs.Cluster) {
	t.Helper()
	for _, path := range h.FilePaths() {
		f := h.File(path)
		for _, bid := range append(append([]hdfs.BlockID{}, f.Blocks...), f.Parity()...) {
			seen := map[hdfs.DatanodeID]bool{}
			for _, r := range h.Replicas(bid) {
				if seen[r] {
					t.Errorf("%s block %d duplicated on node %d", path, bid, r)
				}
				seen[r] = true
				if !h.Datanode(r).HasBlock(bid) {
					t.Errorf("%s block %d not in node %d's set", path, bid, r)
				}
			}
		}
	}
}

// TestChaosSoak is the tentpole acceptance test: six virtual hours of
// crashes, partitions, corruption, and slow nodes, ending with zero
// recoverable blocks lost and every management job resolved.
func TestChaosSoak(t *testing.T) {
	seeds := []int64{1}
	if os.Getenv("ERMS_SOAK") != "" {
		seeds = []int64{1, 2, 3}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			out := runChaosStorm(t, seed, 6*time.Hour)
			pinStorm(t, fmt.Sprintf("soak seed=%d", seed), out.pinned())

			// The storm actually happened.
			if got := out.report.PerKind["crash"]; got < 6 {
				t.Errorf("only %d crashes applied, want ≥6", got)
			}
			if got := out.report.PerKind["partition"]; got < 2 {
				t.Errorf("only %d partitions applied, want ≥2", got)
			}
			if got := out.report.PerKind["corrupt"]; got < 10 {
				t.Errorf("only %d corruptions applied, want ≥10", got)
			}
			// Every partition that happened also healed.
			if out.report.PerKind["heal"] != out.report.PerKind["partition"] {
				t.Errorf("partitions %d != heals %d",
					out.report.PerKind["partition"], out.report.PerKind["heal"])
			}

			// Headline: nothing recoverable was lost.
			if out.lost != 0 {
				t.Errorf("%d blocks unrecoverable after the storm", out.lost)
			}
			if out.under != 0 {
				t.Errorf("%d data blocks still under-replicated at quiescence", out.under)
			}

			// The system fought back and the fight is visible.
			if out.stats.Repairs == 0 {
				t.Error("no repairs ran during a 6h fault storm")
			}
			if out.stats.CorruptFound == 0 {
				t.Error("scrubber/reads found none of the injected corruptions")
			}
			if out.stats.CorruptFixed == 0 {
				t.Error("no corrupted block was restored")
			}

			// Reads mostly survived the storm.
			total := out.readsOK + out.readsBad
			if total == 0 {
				t.Fatal("no reads ran")
			}
			if frac := float64(out.readsBad) / float64(total); frac > 0.05 {
				t.Errorf("%d of %d reads failed (%.1f%% > 5%%)", out.readsBad, total, 100*frac)
			}

			// Condor's books balance: every job resolved or accounted for.
			if out.running != 0 {
				t.Errorf("%d jobs still running at quiescence", out.running)
			}
			if out.sched.Submitted != out.sched.Completed+out.sched.Failed+out.sched.Aborted+out.pending {
				t.Errorf("condor books don't balance: %+v pending=%d", out.sched, out.pending)
			}
		})
	}
}

// TestChaosDeterminism: the entire storm — heartbeat ticks, scrub passes,
// retries, repairs — is a pure function of the seed: the run's state
// digest, chaos report, metrics, stats and Condor log hash equal the
// golden line recorded for it (testdata/chaos_storms.golden).
func TestChaosDeterminism(t *testing.T) {
	pinStorm(t, "determinism seed=5", runChaosStorm(nil, 5, 2*time.Hour).pinned())
}

// TestRepairReArmsWhenTargetsReturn pins the repair-failure satellite fix:
// a repair that exhausts its retries because no placement target exists
// must fire again — and succeed — when a node comes back.
func TestRepairReArmsWhenTargetsReturn(t *testing.T) {
	e := sim.NewEngine()
	topo := topology.New(topology.Config{Racks: 1, NodesPerRack: []int{5}})
	h := hdfs.New(e, hdfs.Config{Topology: topo}) // instant-kill semantics
	m := New(h, Config{
		Thresholds:        Thresholds{TauM: 6, Window: 5 * time.Minute, ColdAge: 90 * time.Minute},
		JudgePeriod:       5 * time.Minute,
		RepairRetry:       condor.RetryPolicy{MaxAttempts: 2, Backoff: 10 * time.Second},
		RepairRescanDelay: 20 * time.Second,
	})
	f, err := h.CreateFile("/a", 64*mb, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	bid := f.Blocks[0]
	holders := map[hdfs.DatanodeID]bool{}
	for _, r := range h.Replicas(bid) {
		holders[r] = true
	}
	var spare []hdfs.DatanodeID // the N-1... rather, all possible targets
	for _, d := range h.Datanodes() {
		if !holders[d.ID] {
			spare = append(spare, d.ID)
		}
	}
	if len(spare) != 2 {
		t.Fatalf("expected 2 non-holders, got %d", len(spare))
	}
	victim := h.Replicas(bid)[0]

	// Kill every possible repair target, then one holder: the repair job
	// runs, finds no target, retries, and finally fails.
	e.At(1*time.Second, func() { h.Kill(spare[0]); h.Kill(spare[1]) })
	e.At(2*time.Second, func() { h.Kill(victim) })
	e.RunUntil(2 * time.Minute)
	if got := len(h.Replicas(bid)); got != 2 {
		t.Fatalf("replicas after kills = %d, want 2", got)
	}
	st := m.Stats()
	if st.RepairsRetried == 0 {
		t.Fatal("repair never retried while targets were gone")
	}
	if st.FailedJobs == 0 {
		t.Fatal("repair never exhausted its attempts")
	}

	// One target returns: the up-hook / re-armed rescan must finish the job.
	e.At(e.Now()+time.Second, func() { h.Restart(spare[0]) })
	e.RunUntil(10 * time.Minute)
	m.Stop()

	reps := h.Replicas(bid)
	if len(reps) != 3 {
		t.Fatalf("block not healed after target returned: %v", reps)
	}
	found := false
	for _, r := range reps {
		if r == spare[0] {
			found = true
		}
	}
	if !found {
		t.Fatal("restarted node did not receive the repaired replica")
	}
	if m.Stats().TimeToRepairP50 <= 0 {
		t.Error("time-to-repair not recorded")
	}
	checkClusterConsistency(t, h)
}

// TestCorruptionRepairedThroughCondor: a silently corrupted replica is
// found by the scrubber, quarantined, re-replicated via a Condor repair
// job, and every step is visible in stats and the user log.
func TestCorruptionRepairedThroughCondor(t *testing.T) {
	e := sim.NewEngine()
	topo := topology.New(topology.Config{})
	h := hdfs.New(e, hdfs.Config{Topology: topo})
	m := New(h, Config{
		Thresholds:  Thresholds{TauM: 6, Window: 5 * time.Minute, ColdAge: 90 * time.Minute},
		JudgePeriod: 5 * time.Minute,
		Scrub:       hdfs.ScrubConfig{Period: 10 * time.Second, BlocksPerScan: 200},
	})
	f, err := h.CreateFile("/a", 64*mb, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	bid := f.Blocks[0]
	bad := h.Replicas(bid)[0]
	if err := h.CorruptReplica(bid, bad); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(5 * time.Minute)
	m.Stop()

	st := m.Stats()
	if st.CorruptFound != 1 {
		t.Fatalf("CorruptFound = %d, want 1", st.CorruptFound)
	}
	if st.CorruptFixed != 1 {
		t.Fatalf("CorruptFixed = %d, want 1", st.CorruptFixed)
	}
	if got := len(h.Replicas(bid)); got != 3 {
		t.Fatalf("replicas after repair = %d, want 3", got)
	}
	for _, r := range h.Replicas(bid) {
		if r == bad && h.Datanode(r).CorruptBlock(bid) {
			t.Fatal("corrupt copy still credited")
		}
	}
	// The recovery is in the user log as a normal, replayable repair job.
	sawRepair := false
	for _, ev := range m.Scheduler().Log() {
		if ev.Kind == condor.EventTerminate && strings.HasPrefix(ev.JobName, "repair:") {
			sawRepair = true
		}
	}
	if !sawRepair {
		t.Fatal("no completed repair job in the condor log")
	}
	if h.Metrics().CorruptDetected != 1 {
		t.Fatalf("CorruptDetected = %d", h.Metrics().CorruptDetected)
	}
	checkClusterConsistency(t, h)
}
