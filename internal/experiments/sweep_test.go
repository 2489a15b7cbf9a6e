package experiments

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"erms/internal/sweep"
)

// tinySweep is a fast grid for tests: 2 seeds × 2 τ_M × 1 ε over a short
// trace — real simulations, small enough for -race.
func tinySweep(parallel int) ThresholdSweepConfig {
	return ThresholdSweepConfig{
		Seeds:      []int64{1, 2},
		Duration:   12 * time.Minute,
		Files:      8,
		TauMs:      []float64{8, 4},
		WindowsMin: []float64{5},
		Epsilons:   []float64{0.5},
		Parallel:   parallel,
	}
}

// TestThresholdSweepWorkerInvariance is the repo's cross-core determinism
// gate (run under -race by `make sweep`): the same grid at -parallel 1 and
// -parallel 8 must render a byte-identical merged table.
func TestThresholdSweepWorkerInvariance(t *testing.T) {
	var tables []string
	for _, par := range []int{1, 8} {
		cfg := tinySweep(par)
		rows, results, err := ThresholdSweep(context.Background(), cfg)
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		if len(results) != 4 {
			t.Fatalf("parallel=%d: %d cells, want 4", par, len(results))
		}
		for _, r := range results {
			if r.Wall <= 0 || r.HeapBytes == 0 {
				t.Errorf("parallel=%d: cell %s missing measurements: %+v", par, r.Name, r)
			}
		}
		tables = append(tables, ThresholdSweepTable(rows).String())
	}
	if tables[0] != tables[1] {
		t.Errorf("threshold sweep diverges across worker counts:\n--- parallel=1:\n%s\n--- parallel=8:\n%s",
			tables[0], tables[1])
	}
}

// TestThresholdSweepShape sanity-checks the grid outcome: canonical row
// order, every cell populated by a real run, and a deterministic winner
// present in the rendered table.
func TestThresholdSweepShape(t *testing.T) {
	cfg := tinySweep(0)
	rows, _, err := ThresholdSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		seed int64
		tauM float64
	}{{1, 8}, {1, 4}, {2, 8}, {2, 4}}
	for i, r := range rows {
		if r.Seed != want[i].seed || r.TauM != want[i].tauM {
			t.Errorf("row %d = seed %d tau_M %g, want seed %d tau_M %g",
				i, r.Seed, r.TauM, want[i].seed, want[i].tauM)
		}
		if r.Throughput <= 0 || r.PeakGB <= 0 {
			t.Errorf("row %d looks unrun: %+v", i, r)
		}
		if r.MM != 1.5*r.TauM {
			t.Errorf("row %d M_M = %g, want %g", i, r.MM, 1.5*r.TauM)
		}
	}
	winner, seeds := ThresholdSweepWinner(rows)
	if seeds != 2 {
		t.Errorf("winner aggregated over %d seeds, want 2", seeds)
	}
	out := ThresholdSweepTable(rows).String()
	if !strings.Contains(out, "winner") || !strings.Contains(out, "mean over 2 seed(s)") {
		t.Errorf("table missing winner footer:\n%s", out)
	}
	// The winner's mean score really is the max over configs.
	means := map[float64]float64{}
	for _, r := range rows {
		means[r.TauM] += r.Score / 2
	}
	for tm, mean := range means {
		wMean := means[winner.TauM]
		if mean > wMean {
			t.Errorf("winner tau_M=%g (mean %.2f) beaten by tau_M=%g (mean %.2f)",
				winner.TauM, wMean, tm, mean)
		}
	}
}

// TestThresholdSweepCancellation: a canceled context stops the grid at
// cell granularity and surfaces the cause.
func TestThresholdSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, results, err := ThresholdSweep(ctx, tinySweep(2))
	if err == nil {
		t.Fatal("canceled sweep reported success")
	}
	for _, r := range results {
		if !r.Skipped {
			t.Errorf("cell %s ran after cancellation", r.Name)
		}
	}
}

// BenchmarkSweep measures the sweep engine on a small real grid, serial vs
// parallel — the speedup headline. On a 1-core runner the two converge;
// on N cores parallel approaches the critical path (slowest cell).
func BenchmarkSweep(b *testing.B) {
	cfg := ThresholdSweepConfig{
		Seeds:      []int64{1},
		Duration:   10 * time.Minute,
		Files:      8,
		TauMs:      []float64{8, 4},
		WindowsMin: []float64{2.5, 5},
	}
	run := func(b *testing.B, parallel int) {
		c := cfg
		c.Parallel = parallel
		for i := 0; i < b.N; i++ {
			if _, _, err := ThresholdSweep(context.Background(), c); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, runtime.NumCPU()) })
}

// TestGridTasksFromExperiments keeps the generic Grid.Tasks path
// exercised from this package too (figures uses it for the figure
// fan-out).
func TestGridTasksFromExperiments(t *testing.T) {
	g := sweep.Grid{Seeds: []int64{1, 2}}
	results, err := sweep.Run(context.Background(), sweep.Options{Parallel: 2},
		g.Tasks(func(ctx context.Context, p sweep.Point) (string, error) {
			return g.Label(p) + "\n", nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if got := sweep.Merged(results); got != "seed=1\nseed=2\n" {
		t.Errorf("merged = %q", got)
	}
}
