package experiments

import (
	"context"
	"fmt"
	"time"

	"erms/internal/core"
	"erms/internal/hdfs"
	"erms/internal/invariant"
	"erms/internal/metrics"
	"erms/internal/sim"
	"erms/internal/sweep"
	"erms/internal/workload"
)

// ScenarioConfig sizes the production-shaped scenario grid: every scenario
// from workload.ScenarioNames() runs once vanilla and once under ERMS, on
// the sweep engine, and the merged table is byte-identical at any -parallel
// value. The grid is the evaluation substrate the ROADMAP calls for beyond
// SWIM batch replay: tenant contention, diurnal commission/drain cycles,
// a flash crowd with judge reaction time, and pread-only traffic that only
// the block-level judge axes can see.
type ScenarioConfig struct {
	Seed     int64
	Duration time.Duration // trace length per cell (default 30 min)
	Parallel int           // sweep workers (<= 0: one per CPU)
}

func (c *ScenarioConfig) applyDefaults() {
	if c.Duration <= 0 {
		c.Duration = 30 * time.Minute
	}
}

// ScenarioRow is one (scenario, system) cell's outcome.
type ScenarioRow struct {
	Scenario   string
	System     string  // "vanilla" or "ERMS"
	Jobs       int     // completed reads
	Failed     int     // failed reads
	Throughput float64 // mean per-read throughput MB/s
	ReplicaGB  float64 // replication traffic
	Fairness   float64 // Jain index over per-tenant bytes (1 when untenanted)
	// ReactS is the flash-crowd judge reaction time in seconds (first viral
	// read → replica-add completion); -1 when not applicable or no reaction.
	ReactS         float64
	Commissions    int
	F1, F2, F3, F4 int     // judge decisions acted on, by formula
	Score          float64 // Throughput − lambda·ReplicaGB
}

// Scenarios runs the scenario × system grid on the sweep engine and returns
// one row per cell in canonical order (scenario-major, vanilla before ERMS)
// regardless of worker count, plus the per-cell sweep results for timing
// reports.
func Scenarios(ctx context.Context, cfg ScenarioConfig) ([]ScenarioRow, []sweep.Result, error) {
	cfg.applyDefaults()
	systems := []string{"vanilla", "ERMS"}
	names := workload.ScenarioNames()
	rows := make([]ScenarioRow, len(names)*len(systems))
	tasks := make([]sweep.Task, 0, len(rows))
	for si, name := range names {
		for yi, system := range systems {
			i, name, system := si*len(systems)+yi, name, system
			tasks = append(tasks, sweep.Task{
				Name: fmt.Sprintf("scenario=%s system=%s", name, system),
				Run: func(ctx context.Context) (string, error) {
					row, err := runScenarioCell(cfg, name, system)
					if err != nil {
						return "", err
					}
					rows[i] = row
					return "", nil
				},
			})
		}
	}
	results, err := sweep.Run(ctx, sweep.Options{Parallel: cfg.Parallel}, tasks)
	return rows, results, err
}

// runScenarioCell runs one scenario on one system — a single-threaded,
// fully self-contained simulation, the unit of parallelism.
func runScenarioCell(cfg ScenarioConfig, name, system string) (ScenarioRow, error) {
	trace, err := workload.SynthesizeScenario(name, cfg.Seed, cfg.Duration)
	if err != nil {
		return ScenarioRow{}, err
	}
	var tb *Testbed
	if system == "vanilla" {
		tb = NewVanilla(18)
	} else {
		th := core.Thresholds{ColdAge: 24 * time.Hour} // replication, not coding
		if name == "diurnal" {
			// The diurnal cell is about the commission/drain cycle: give the
			// deployment a standby pool to breathe with.
			tb = NewERMS(12, 6, th, time.Minute)
		} else {
			tb = NewERMS(18, 0, th, time.Minute)
		}
	}
	row := ScenarioRow{Scenario: name, System: system, ReactS: -1}

	iso := invariant.NewTenantIsolation()
	var rx invariant.Reaction
	var tp metrics.Mean
	workload.Preload(tb.Engine, tb.Cluster, trace)
	for _, js := range trace.Jobs {
		iso.ObserveSubmit(js)
		workload.ScheduleRead(tb.Engine, tb.Cluster, 0, js, func(r *hdfs.ReadResult) {
			iso.ObserveDone(js, r)
			if r.Err != nil {
				row.Failed++
				return
			}
			row.Jobs++
			tp.Add(r.ThroughputMBps())
			if name == "flashcrowd" && js.File == workload.ViralPath {
				rx.ObserveRead(r.Start)
			}
		})
	}
	if name == "flashcrowd" {
		// Watch the viral file's first block: the moment its live replica
		// set grows past the default factor, the judge's reaction landed.
		viral := tb.Cluster.File(workload.ViralPath)
		if viral == nil || len(viral.Blocks) == 0 {
			return ScenarioRow{}, fmt.Errorf("scenario %s: viral file missing after preload", name)
		}
		b0 := viral.Blocks[0]
		base := len(tb.Cluster.Replicas(b0))
		sim.NewTicker(tb.Engine, time.Second, func(now time.Duration) {
			if !rx.Reacted() && len(tb.Cluster.Replicas(b0)) > base {
				rx.ObserveReplicaAdd(now)
			}
		})
	}
	tb.Engine.RunUntil(trace.Horizon(time.Hour))
	if tb.Manager != nil {
		tb.Manager.Stop()
		st := tb.Manager.Stats()
		row.Commissions = st.Commissions
		for _, d := range tb.Manager.History() {
			switch d.Formula {
			case 1:
				row.F1++
			case 2:
				row.F2++
			case 3:
				row.F3++
			case 4:
				row.F4++
			}
		}
	}
	row.Throughput = tp.Value()
	row.ReplicaGB = tb.Cluster.Metrics().ReplicationMB * MB / GB
	row.Fairness = iso.Fairness()
	if name == "flashcrowd" && rx.Reacted() {
		row.ReactS = rx.Time().Seconds()
	}
	row.Score = row.Throughput - float64(lambda*row.ReplicaGB)
	return row, nil
}

// ScenarioWinner picks the better system for one scenario by score; ties
// keep the earlier row in canonical order, so the winner is deterministic.
func ScenarioWinner(rows []ScenarioRow, scenario string) (ScenarioRow, bool) {
	var best ScenarioRow
	found := false
	for _, r := range rows {
		if r.Scenario != scenario {
			continue
		}
		if !found || r.Score > best.Score {
			best, found = r, true
		}
	}
	return best, found
}

// ScenarioTable renders the grid with a per-scenario winner footer.
func ScenarioTable(rows []ScenarioRow) *metrics.Table {
	t := &metrics.Table{
		Title: fmt.Sprintf("Scenario suite: vanilla vs ERMS, score = throughput_MBps - %g*replication_GB",
			lambda),
		Columns: []string{"scenario", "system", "jobs", "failed", "throughput_MBps",
			"replication_GB", "fairness", "react_s", "commissions", "f1", "f2", "f3", "f4", "score"},
	}
	react := func(s float64) string {
		if s < 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", s)
	}
	for _, r := range rows {
		t.AddRowValues(r.Scenario, r.System, r.Jobs, r.Failed, r.Throughput,
			r.ReplicaGB, r.Fairness, react(r.ReactS), r.Commissions, r.F1, r.F2, r.F3, r.F4, r.Score)
	}
	for _, name := range workload.ScenarioNames() {
		if w, ok := ScenarioWinner(rows, name); ok {
			t.AddRowValues("winner:"+name, w.System, "", "", "", "", "", react(w.ReactS),
				"", "", "", "", "", fmt.Sprintf("%.1f", w.Score))
		}
	}
	return t
}
