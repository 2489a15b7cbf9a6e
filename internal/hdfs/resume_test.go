package hdfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"erms/internal/sim"
	"erms/internal/topology"
)

// resumeEvent is one scripted workload action at an absolute virtual time.
// The same event list drives both the uninterrupted run and the
// checkpoint-restore-resume run, so any divergence is the format's fault.
type resumeEvent struct {
	at   time.Duration
	kind int // 0 create, 1 read, 2 setrepl, 3 delete, 4 kill, 5 restart
	path string
	node int
	repl int
	size float64
}

const (
	resumeHorizon = 30 * time.Minute
	resumeCut     = 15 * time.Minute
	resumeNodes   = 15
)

// resumeWorkload generates a seed-deterministic event script. Nothing is
// scheduled in the three minutes before the cut, so every read and replica
// copy has drained by then and the cut lands on a quiescent cluster —
// checkpoints capture durable state only, exactly like a real namenode.
func resumeWorkload(seed int64) []resumeEvent {
	rng := rand.New(rand.NewSource(seed))
	var evs []resumeEvent
	nFiles := 8 + rng.Intn(5)
	for i := 0; i < nFiles; i++ {
		evs = append(evs, resumeEvent{
			kind: 0,
			path: fmt.Sprintf("/rs/f%02d", i),
			size: (64 + float64(rng.Intn(192))) * mb,
			repl: 2 + rng.Intn(2),
		})
	}
	randAt := func() time.Duration {
		for {
			at := time.Duration(1 + rng.Int63n(int64(resumeHorizon-4*time.Minute))) // leave drain room at the end
			if at < resumeCut-3*time.Minute || at > resumeCut {
				return at
			}
		}
	}
	for i := 0; i < 120; i++ {
		at := randAt()
		p := fmt.Sprintf("/rs/f%02d", rng.Intn(nFiles))
		switch rng.Intn(12) {
		case 0:
			evs = append(evs, resumeEvent{at: at, kind: 0,
				path: fmt.Sprintf("/rs/n%03d", i), size: (64 + float64(rng.Intn(128))) * mb,
				repl: 2 + rng.Intn(2)})
		case 1:
			evs = append(evs, resumeEvent{at: at, kind: 2, path: p, repl: 2 + rng.Intn(4)})
		case 2:
			if rng.Intn(3) == 0 {
				evs = append(evs, resumeEvent{at: at, kind: 3, path: p})
			}
		case 3:
			// Kill a low-numbered node and restart it two minutes later;
			// the pair may straddle the cut (node down at checkpoint time).
			n := 1 + rng.Intn(5)
			evs = append(evs, resumeEvent{at: at, kind: 4, node: n},
				resumeEvent{at: at + 2*time.Minute, kind: 5, node: n})
		default:
			evs = append(evs, resumeEvent{at: at, kind: 1, path: p, node: rng.Intn(resumeNodes)})
		}
	}
	return evs
}

// applyResumeEvents schedules the events with at > from onto the cluster.
// Guards make events idempotent against earlier deletes and double kills,
// and both runs share the guards, so behavior stays identical.
func applyResumeEvents(e *sim.Engine, c *Cluster, evs []resumeEvent, from time.Duration) {
	now := e.Now()
	for _, ev := range evs {
		ev := ev
		if ev.at <= from {
			continue
		}
		e.Schedule(ev.at-now, func() {
			switch ev.kind {
			case 0:
				if c.File(ev.path) == nil {
					_, _ = c.CreateFile(ev.path, ev.size, ev.repl, -1)
				}
			case 1:
				if c.File(ev.path) != nil {
					c.ReadFile(topology.NodeID(ev.node), ev.path, nil)
				}
			case 2:
				if c.File(ev.path) != nil {
					c.SetReplication(ev.path, ev.repl, WholeAtOnce, nil)
				}
			case 3:
				if c.File(ev.path) != nil {
					_ = c.DeleteFile(ev.path)
				}
			case 4:
				if d := c.Datanode(DatanodeID(ev.node)); d != nil && d.State == StateActive && !d.Down() {
					c.Kill(DatanodeID(ev.node))
				}
			case 5:
				c.Restart(DatanodeID(ev.node))
			}
		})
	}
}

func newResumeCluster() (*sim.Engine, *Cluster) {
	e := sim.NewEngine()
	c := New(e, Config{Topology: topology.New(topology.Config{Racks: 3, NodeCount: resumeNodes})})
	return e, c
}

// endState folds everything observable about a finished run into
// comparable bytes: the canonical checkpoint encoding plus the metrics.
func endState(t *testing.T, c *Cluster) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("end-state encode: %v", err)
	}
	return fmt.Sprintf("%+v", c.Metrics()), buf.Bytes()
}

// TestCheckpointResumeEquivalence is the property test for the resume
// story: across 10 storm seeds, running a workload straight through must
// be indistinguishable — byte-identical end-of-run state and metrics —
// from checkpointing at a quiescent mid-point, restoring into a fresh
// cluster, and resuming the remaining workload there.
func TestCheckpointResumeEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			evs := resumeWorkload(seed)

			// Uninterrupted run: everything scheduled up front.
			eA, cA := newResumeCluster()
			applyResumeEvents(eA, cA, evs, -1)
			eA.RunUntil(resumeHorizon)
			wantMetrics, wantBytes := endState(t, cA)

			// Interrupted run: pre-cut events only, checkpoint at the cut.
			eB, cB := newResumeCluster()
			applyResumeEvents(eB, cB, evs, -1)
			eB.RunUntil(resumeCut)
			if n := cB.ActiveReads(); n != 0 {
				t.Fatalf("cut is not quiescent: %d active reads (widen the workload gap)", n)
			}
			for _, d := range cB.Datanodes() {
				if d.PendingAdds() != 0 {
					t.Fatalf("cut is not quiescent: %s has %d pending replica adds", d.Name, d.PendingAdds())
				}
			}
			var ckpt bytes.Buffer
			if err := cB.WriteCheckpoint(&ckpt); err != nil {
				t.Fatal(err)
			}

			// Resume: fresh cluster, restore, schedule the remaining tail.
			eC, cC := newResumeCluster()
			if err := cC.RestoreCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
				t.Fatal(err)
			}
			applyResumeEvents(eC, cC, evs, resumeCut)
			eC.RunUntil(resumeHorizon)

			gotMetrics, gotBytes := endState(t, cC)
			if gotMetrics != wantMetrics {
				t.Errorf("metrics diverged after resume:\n straight: %s\n resumed:  %s", wantMetrics, gotMetrics)
			}
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Errorf("end state diverged after resume: %d vs %d canonical bytes (digest %#x vs %#x)",
					len(gotBytes), len(wantBytes), cC.StateDigest(), cA.StateDigest())
			}
			if errs := cC.ConsistencyErrors(); errs != nil {
				t.Errorf("resumed cluster inconsistent: %v", errs)
			}
		})
	}
}
