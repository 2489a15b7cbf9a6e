package experiments

import (
	"context"
	"testing"
	"time"
)

func TestAblationPlacementStandbyFirstDeletion(t *testing.T) {
	rows := AblationPlacement()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var def, erms AblationPlacementRow
	for _, r := range rows {
		if r.Policy == "default" {
			def = r
		} else {
			erms = r
		}
	}
	// Both remove the same number of replicas total (8 blocks x 5 extras).
	if def.RemovalsFromActive+def.RemovalsFromPool != erms.RemovalsFromActive+erms.RemovalsFromPool {
		t.Fatalf("total removals differ: %+v vs %+v", def, erms)
	}
	// ERMS deletions land on the pool; the baseline (no pool) disturbs
	// always-on nodes for every removal.
	if erms.RemovalsFromActive != 0 {
		t.Errorf("ERMS removed %d replicas from always-on nodes, want 0", erms.RemovalsFromActive)
	}
	if def.RemovalsFromActive == 0 {
		t.Error("baseline should disturb active nodes")
	}
	if tb := AblationPlacementTable(rows); len(tb.Rows) != 2 {
		t.Fatal("table")
	}
}

func TestAblationIdleSchedulingProtectsReads(t *testing.T) {
	rows := AblationIdleScheduling()
	var imm, idle AblationIdleRow
	for _, r := range rows {
		if r.Scheduling == "immediate" {
			imm = r
		} else {
			idle = r
		}
	}
	if imm.AvgReadSec <= idle.AvgReadSec {
		t.Errorf("immediate encodes should slow reads: immediate %.2fs vs deferred %.2fs",
			imm.AvgReadSec, idle.AvgReadSec)
	}
	// Deferred encodes still complete once the cluster goes idle.
	if idle.EncodesDone == 0 {
		t.Error("deferred encodes never ran")
	}
	if imm.EncodesDone == 0 {
		t.Error("immediate encodes never ran")
	}
	if tb := AblationIdleTable(rows); len(tb.Rows) != 2 {
		t.Fatal("table")
	}
}

func TestReliabilityShape(t *testing.T) {
	rows := Reliability(800, []int{1, 3, 5}, 11)
	get := func(scheme string, fail int) float64 {
		for _, r := range rows {
			if r.Scheme == scheme && r.NodesFailed == fail {
				return r.LossProb
			}
		}
		t.Fatalf("missing %s/%d", scheme, fail)
		return 0
	}
	// Single replication loses data almost immediately.
	if get("replication-1", 1) < 0.3 {
		t.Errorf("replication-1 at f=1 too safe: %v", get("replication-1", 1))
	}
	// Triplication survives up to 2 failures by construction.
	if get("replication-3", 1) != 0 {
		t.Errorf("replication-3 lost data with one failure: %v", get("replication-3", 1))
	}
	// RS(10,4) with one replica per block tolerates any 4 node failures
	// only if stripe members sit on distinct nodes; at minimum it must
	// dominate single replication everywhere and not be catastrophically
	// worse than triplication at low failure counts.
	for _, f := range []int{1, 3, 5} {
		if get("rs(10,4)", f) > get("replication-1", f) {
			t.Errorf("RS worse than single replication at f=%d", f)
		}
	}
	if get("rs(10,4)", 1) != 0 {
		t.Errorf("RS(10,4) lost data with one failure: %v", get("rs(10,4)", 1))
	}
	// Stripe-aware keeper placement: the code's full tolerance (any 3 node
	// failures with near-distinct shard placement) is preserved.
	if get("rs(10,4)", 3) != 0 {
		t.Errorf("RS(10,4) lost data with three failures: %v", get("rs(10,4)", 3))
	}
	// Monotone in failures for each scheme.
	for _, s := range []string{"replication-1", "replication-3", "rs(10,4)"} {
		if get(s, 1) > get(s, 3) || get(s, 3) > get(s, 5) {
			t.Errorf("%s: loss probability not monotone", s)
		}
	}
	if tb := ReliabilityTable(rows); len(tb.Rows) != len(rows) {
		t.Fatal("table")
	}
}

func TestAblationThresholdsTradeoff(t *testing.T) {
	rows, _, err := ThresholdSweep(context.Background(), ThresholdSweepConfig{
		Duration: 40 * time.Minute, Files: 16, TauMs: []float64{12, 4}, WindowsMin: []float64{5}})
	if err != nil || len(rows) != 2 {
		t.Fatalf("rows = %d, err = %v", len(rows), err)
	}
	conservative, aggressive := rows[0], rows[1]
	if conservative.TauM != 12 || aggressive.TauM != 4 {
		t.Fatalf("order: %+v", rows)
	}
	// Lower τ_M means more replication activity and more bytes moved (the
	// "high overhead cost" of low thresholds the paper warns about).
	if aggressive.Increases <= conservative.Increases {
		t.Errorf("increases: τ4=%d should exceed τ12=%d",
			aggressive.Increases, conservative.Increases)
	}
	if aggressive.ReplicaMB <= conservative.ReplicaMB {
		t.Errorf("replication traffic: τ4=%.0f MB should exceed τ12=%.0f MB",
			aggressive.ReplicaMB, conservative.ReplicaMB)
	}
	if tb := AblationThresholdsTable(rows); len(tb.Rows) != 2 {
		t.Fatal("table")
	}
}

func TestAblationSpeculationContainsStragglers(t *testing.T) {
	rows := AblationSpeculation()
	var plain, spec AblationSpeculationRow
	for _, r := range rows {
		if r.Mode == "speculative" {
			spec = r
		} else {
			plain = r
		}
	}
	if spec.Backups == 0 || spec.BackupsWon == 0 {
		t.Fatalf("speculation inactive: %+v", spec)
	}
	if spec.MakespanSec >= plain.MakespanSec {
		t.Errorf("speculation did not help: %.1fs vs %.1fs",
			spec.MakespanSec, plain.MakespanSec)
	}
	if tb := AblationSpeculationTable(rows); len(tb.Rows) != 2 {
		t.Fatal("table")
	}
}
