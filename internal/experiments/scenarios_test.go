package experiments

import (
	"context"
	"strings"
	"testing"
	"time"
)

func scenarioTestConfig(parallel int) ScenarioConfig {
	return ScenarioConfig{Seed: 1, Duration: 30 * time.Minute, Parallel: parallel}
}

// TestScenarioGridShape: the grid's qualitative claims — every scenario
// runs clean under both systems, the flash-crowd judge reacts, the partial
// scenario drives the block-level axes (formulas 2 and 3) that whole-file
// workloads cannot, and the diurnal cell exercises the commission cycle.
func TestScenarioGridShape(t *testing.T) {
	rows, _, err := Scenarios(context.Background(), scenarioTestConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 (4 scenarios x 2 systems)", len(rows))
	}
	byCell := map[string]ScenarioRow{}
	for _, r := range rows {
		if r.Jobs == 0 {
			t.Fatalf("cell %s/%s completed no jobs", r.Scenario, r.System)
		}
		if r.Failed > 0 {
			t.Fatalf("cell %s/%s failed %d reads", r.Scenario, r.System, r.Failed)
		}
		byCell[r.Scenario+"/"+r.System] = r
	}
	if r := byCell["flashcrowd/ERMS"]; r.ReactS <= 0 {
		t.Fatalf("flash crowd: judge never reacted (react_s = %v)", r.ReactS)
	}
	if r := byCell["partial/ERMS"]; r.F2 == 0 || r.F3 == 0 {
		t.Fatalf("partial reads must fire both block axes: f2=%d f3=%d", r.F2, r.F3)
	}
	if r := byCell["partial/ERMS"]; r.F1 != 0 {
		t.Fatalf("partial reads are preads, formula 1 must stay silent: f1=%d", r.F1)
	}
	if r := byCell["diurnal/ERMS"]; r.Commissions == 0 {
		t.Fatal("diurnal cycle never commissioned a standby node")
	}
	if r := byCell["tenant/ERMS"]; r.Fairness <= 0 || r.Fairness > 1 {
		t.Fatalf("tenant fairness out of range: %v", r.Fairness)
	}
	for _, sys := range []string{"vanilla", "ERMS"} {
		if r := byCell["tenant/"+sys]; r.Fairness < 0.5 {
			t.Fatalf("tenant %s: fairness %v means a tenant starved", sys, r.Fairness)
		}
	}
}

// TestScenarioDeterminism: the same config rendered twice must be
// byte-identical — the property `figures -fig scenarios` reruns rely on.
func TestScenarioDeterminism(t *testing.T) {
	render := func() string {
		cfg := scenarioTestConfig(0)
		rows, _, err := Scenarios(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ScenarioTable(rows).String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("scenario grid not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestScenarioWorkerInvariance: the merged table must be byte-identical at
// any worker count (the make sweep gate).
func TestScenarioWorkerInvariance(t *testing.T) {
	render := func(parallel int) string {
		cfg := scenarioTestConfig(parallel)
		rows, _, err := Scenarios(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ScenarioTable(rows).String()
	}
	serial := render(1)
	for _, p := range []int{2, 8} {
		if got := render(p); got != serial {
			t.Fatalf("parallel=%d diverges from serial:\n%s\nvs\n%s", p, got, serial)
		}
	}
}

// TestScenarioTableWinners: the rendered table carries one winner footer
// per scenario.
func TestScenarioTableWinners(t *testing.T) {
	cfg := scenarioTestConfig(0)
	rows, _, err := Scenarios(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := ScenarioTable(rows).String()
	for _, name := range []string{"winner:tenant", "winner:diurnal", "winner:flashcrowd", "winner:partial"} {
		if !strings.Contains(tbl, name) {
			t.Fatalf("table missing %q footer:\n%s", name, tbl)
		}
	}
	if w, ok := ScenarioWinner(rows, "flashcrowd"); !ok || w.System != "ERMS" {
		t.Fatalf("flash crowd winner should be ERMS (it reacts), got %+v", w)
	}
}
