package core

import (
	"testing"
	"time"

	"erms/internal/hdfs"
	"erms/internal/sim"
	"erms/internal/topology"
	"erms/internal/workload"
)

// TestSoakSixHoursWithFailures runs a full ERMS deployment against six
// virtual hours of heavy-tailed workload while killing and restarting
// datanodes every 40 minutes, then checks the system's global invariants:
// nothing under-replicated that could have been repaired, metadata
// consistent, management jobs accounted for, and the standby pool back
// asleep.
func TestSoakSixHoursWithFailures(t *testing.T) {
	e := sim.NewEngine()
	topo := topology.New(topology.Config{})
	pool := hdfs.SpreadStandby(topo, 8)
	h := hdfs.New(e, hdfs.Config{Topology: topo, StandbyNodes: pool})
	active := h.Active()
	th := Thresholds{
		TauM:    6,
		Window:  5 * time.Minute,
		ColdAge: 90 * time.Minute,
	}
	m := New(h, Config{Thresholds: th, JudgePeriod: 5 * time.Minute})

	trace := workload.Synthesize(workload.Config{
		Seed:             99,
		Duration:         4 * time.Hour, // quiet final 2h lets cold data encode
		NumFiles:         20,
		MeanInterarrival: 10 * time.Second,
		MaxFileSize:      512 * mb,
	})
	workload.Preload(e, h, trace)
	completed, failed := 0, 0
	workload.ReplayReads(e, h, trace, func(r *hdfs.ReadResult) {
		if r.Err != nil {
			failed++
		} else {
			completed++
		}
	})

	// Failure injection: every 40 minutes kill an always-active node and
	// restart the previous victim, so at most one node is down at a time.
	var lastVictim hdfs.DatanodeID = -1
	for i := 0; i < 8; i++ {
		at := time.Duration(40*(i+1)) * time.Minute
		victim := active[i%len(active)]
		e.At(at, func() {
			if lastVictim >= 0 {
				h.Restart(lastVictim)
			}
			h.Kill(victim)
			lastVictim = victim
		})
	}

	e.RunUntil(6 * time.Hour)
	m.Stop()

	total := completed + failed
	if total == 0 {
		t.Fatal("no reads ran")
	}
	// With 3x replication, one node down at a time, and repair jobs, the
	// overwhelming majority of reads must succeed.
	if float64(failed)/float64(total) > 0.02 {
		t.Fatalf("%d of %d reads failed (> 2%%)", failed, total)
	}

	// Every surviving block is repairable and repaired: run the pending
	// sweeps to quiescence and verify.
	e.RunFor(30 * time.Minute)
	for _, bid := range h.UnderReplicated() {
		b, _ := h.Block(bid)
		if len(h.Replicas(bid)) == 0 && !h.File(b.File).Encoded {
			continue // plain block lost beyond repair is impossible here: fail
		}
		t.Errorf("block %d of %s still under-replicated at quiescence", bid, b.File)
	}

	// Metadata invariants across the whole namespace.
	for _, path := range h.FilePaths() {
		f := h.File(path)
		for _, bid := range f.Blocks {
			reps := h.Replicas(bid)
			if len(reps) == 0 {
				t.Errorf("%s block %d lost", path, bid)
			}
			seen := map[hdfs.DatanodeID]bool{}
			for _, r := range reps {
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

	st := m.Stats()
	if st.Decisions == 0 || st.Increases == 0 {
		t.Fatalf("ERMS never acted: %+v", st)
	}
	if st.Encodes == 0 {
		t.Errorf("no cold data encoded over six hours: %+v", st)
	}
	// The scheduler's books must balance: everything submitted finished,
	// failed, or was aborted (nothing stuck pending/running at quiescence).
	cs := m.Scheduler().Stats()
	if m.Scheduler().Running() != 0 {
		t.Errorf("%d management jobs still running", m.Scheduler().Running())
	}
	if cs.Submitted != cs.Completed+cs.Failed+cs.Aborted+m.Scheduler().Pending() {
		t.Errorf("condor books don't balance: %+v pending=%d", cs, m.Scheduler().Pending())
	}
	// Quiet for hours: any drained pool node is powered down again.
	for _, id := range pool {
		d := h.Datanode(id)
		if m.InStandbyPool(id) && d.NumBlocks() == 0 && d.State == hdfs.StateActive {
			t.Errorf("drained pool node %s left powered on", d.Name)
		}
	}
}
