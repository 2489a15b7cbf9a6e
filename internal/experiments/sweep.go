package experiments

import (
	"context"
	"fmt"
	"time"

	"erms/internal/core"
	"erms/internal/metrics"
	"erms/internal/sim"
	"erms/internal/sweep"
)

// ThresholdSweepConfig spans the Data Judge tuning grid the paper
// hand-tunes in Section IV (τ_M from the per-replica capacity measurement,
// the window, M_M and ε from experience). Run as `figures -fig sweep`, it
// turns that tuning into one command: every grid cell runs the Figure-3
// FIFO workload in its own deployment, cells execute concurrently on the
// sweep engine, and the merged table is byte-identical at any -parallel
// value.
//
// The default grid sweeps τ_M × window — the two knobs with a real
// gradient under this workload. M_M and ε are sweepable too, but under
// the default whole-file trace per-block access counts track per-file
// counts, so the block-level hot rules (Formulas 2–3) fire exactly when
// the file-level rule (Formula 1) does and those axes have no independent
// gradient here. The partial-read scenario (workload.SynthesizeScenario
// "partial", DESIGN.md §14) is what drives them independently — its
// ranged reads audit as pread, invisible to Formula (1), while the block
// events still feed (2) and (3).
type ThresholdSweepConfig struct {
	Seeds      []int64       // workload seeds (default {1})
	Duration   time.Duration // trace length per cell (default 30 min)
	Files      int           // catalog size per cell (default 12)
	TauMs      []float64     // τ_M axis (default {12, 8, 6, 4})
	WindowsMin []float64     // CEP window axis, minutes (default {2.5, 5, 10})
	Epsilons   []float64     // ε axis (default {0.5})
	MMScales   []float64     // M_M = scale·τ_M axis (default {1.5})
	// Lambda prices the management overhead when scoring: score =
	// throughput_MBps − Lambda · replication_GB. Default 0.1.
	Lambda   float64
	Parallel int  // sweep workers (<= 0: one per CPU)
	FailFast bool // stop the grid on the first cell error
}

func (c *ThresholdSweepConfig) applyDefaults() {
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1}
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Minute
	}
	if c.Files <= 0 {
		c.Files = 12
	}
	if len(c.TauMs) == 0 {
		c.TauMs = []float64{12, 8, 6, 4}
	}
	if len(c.WindowsMin) == 0 {
		c.WindowsMin = []float64{2.5, 5, 10}
	}
	if len(c.Epsilons) == 0 {
		c.Epsilons = []float64{0.5}
	}
	if len(c.MMScales) == 0 {
		c.MMScales = []float64{1.5}
	}
	if c.Lambda <= 0 {
		c.Lambda = 0.1
	}
}

// Grid expands the config into the sweep grid (canonical cell order:
// seed-major, then τ_M, window, ε, M_M-scale with the last axis fastest).
func (c ThresholdSweepConfig) Grid() sweep.Grid {
	c.applyDefaults()
	return sweep.Grid{
		Seeds: c.Seeds,
		Axes: []sweep.Axis{
			{Name: "tau_M", Values: c.TauMs},
			{Name: "win_min", Values: c.WindowsMin},
			{Name: "eps", Values: c.Epsilons},
			{Name: "mm_scale", Values: c.MMScales},
		},
	}
}

// ThresholdSweepRow is one grid cell's outcome.
type ThresholdSweepRow struct {
	Seed       int64
	TauM       float64
	WindowMin  float64 // CEP window, minutes
	Epsilon    float64
	MM         float64 // resolved M_M (scale · τ_M)
	Throughput float64 // avg per-job read throughput MB/s
	PeakGB     float64 // peak storage (per-minute samples)
	ReplicaMB  float64 // replication traffic: the cost of elasticity
	Increases  int
	Score      float64 // Throughput − Lambda·(ReplicaMB in GB)
}

// ThresholdSweep runs the grid on the sweep engine and returns one row per
// cell in canonical grid order (regardless of worker count or scheduling)
// plus the per-cell sweep results for timing reports. Cancelling ctx stops
// the grid at cell granularity.
func ThresholdSweep(ctx context.Context, cfg ThresholdSweepConfig) ([]ThresholdSweepRow, []sweep.Result, error) {
	cfg.applyDefaults()
	grid := cfg.Grid()
	points := grid.Points()
	// Each cell writes its own row slot: disjoint indexes, so the merged
	// rows are in canonical grid order with no post-run sorting.
	rows := make([]ThresholdSweepRow, len(points))
	tasks := make([]sweep.Task, len(points))
	for i, p := range points {
		i, p := i, p
		tasks[i] = sweep.Task{
			Name: grid.Label(p),
			Run: func(ctx context.Context) (string, error) {
				rows[i] = runThresholdSweepCell(cfg, p)
				return "", nil
			},
		}
	}
	results, err := sweep.Run(ctx, sweep.Options{Parallel: cfg.Parallel, FailFast: cfg.FailFast}, tasks)
	return rows, results, err
}

// runThresholdSweepCell runs one (seed, τ_M, window, ε, M_M) deployment
// over the Fig-3 FIFO workload — a single-threaded, fully self-contained
// simulation, the unit of parallelism.
func runThresholdSweepCell(cfg ThresholdSweepConfig, p sweep.Point) ThresholdSweepRow {
	tauM, winMin, eps, mmScale := p.Values[0], p.Values[1], p.Values[2], p.Values[3]
	th := core.Thresholds{
		TauM:    tauM,
		MM:      mmScale * tauM,
		Epsilon: eps,
		Window:  time.Duration(winMin * float64(time.Minute)),
		ColdAge: 24 * time.Hour, // keep the sweep about replication, not coding
	}
	tb := NewERMS(18, 0, th, time.Minute)
	trace := synthesizeFig3Trace(Fig3Config{Seed: p.Seed, Duration: cfg.Duration, Files: cfg.Files})
	peak := 0.0
	sim.NewTicker(tb.Engine, time.Minute, func(time.Duration) {
		if u := tb.Cluster.TotalUsed(); u > peak {
			peak = u
		}
	})
	row := ThresholdSweepRow{Seed: p.Seed, TauM: tauM, WindowMin: winMin, Epsilon: eps, MM: th.MM}
	row.Throughput = runTraceFIFO(tb, trace)
	row.PeakGB = peak / GB
	row.ReplicaMB = tb.Cluster.Metrics().ReplicationMB
	row.Increases = tb.Manager.Stats().Increases
	row.Score = row.Throughput - cfg.Lambda*(row.ReplicaMB*MB/GB)
	return row
}

// ThresholdSweepWinner picks the threshold setting with the best mean
// score across seeds. Ties keep the earliest cell in grid order, so the
// winner is deterministic.
func ThresholdSweepWinner(rows []ThresholdSweepRow) (ThresholdSweepRow, int) {
	type key struct{ tauM, win, eps, mm float64 }
	order := []key{}
	sum := map[key]float64{}
	n := map[key]int{}
	for _, r := range rows {
		k := key{r.TauM, r.WindowMin, r.Epsilon, r.MM}
		if n[k] == 0 {
			order = append(order, k)
		}
		sum[k] += r.Score
		n[k]++
	}
	var best key
	bestMean := 0.0
	for i, k := range order {
		mean := sum[k] / float64(n[k])
		if i == 0 || mean > bestMean {
			best, bestMean = k, mean
		}
	}
	for _, r := range rows {
		if (key{r.TauM, r.WindowMin, r.Epsilon, r.MM}) == best {
			return r, n[best]
		}
	}
	return ThresholdSweepRow{}, 0
}

// ThresholdSweepTable renders the grid plus a winner footer.
func ThresholdSweepTable(cfg ThresholdSweepConfig, rows []ThresholdSweepRow) *metrics.Table {
	cfg.applyDefaults()
	t := &metrics.Table{
		Title: fmt.Sprintf("Threshold sweep: judge tuning grid, score = throughput_MBps - %g*replication_GB",
			cfg.Lambda),
		Columns: []string{"seed", "tau_M", "win_min", "eps", "M_M", "throughput_MBps", "peak_GB", "replication_GB", "increases", "score"},
	}
	for _, r := range rows {
		t.AddRowValues(int(r.Seed), r.TauM, r.WindowMin, r.Epsilon, r.MM, r.Throughput, r.PeakGB, r.ReplicaMB*MB/GB, r.Increases, r.Score)
	}
	if w, seeds := ThresholdSweepWinner(rows); seeds > 0 {
		t.AddRowValues("winner", w.TauM, w.WindowMin, w.Epsilon, w.MM, "", "", "", "",
			fmt.Sprintf("mean over %d seed(s)", seeds))
	}
	return t
}
