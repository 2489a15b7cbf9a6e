// Command figures regenerates the data behind every figure in the ERMS
// paper's evaluation (Figures 3–9), plus the ablations, the reliability
// study, and the threshold-tuning sweep documented in DESIGN.md. Output
// is plain aligned text, one table per figure.
//
// Figures are independent deterministic simulations, so they fan out
// across cores on the sweep engine (internal/sweep): `-parallel N` picks
// the worker count (default: one per CPU) and the merged output is
// byte-identical at any setting — timing lives behind `-timing`, off the
// byte-stable stream.
//
// Usage:
//
//	figures -fig all                # everything, quick scale, all cores
//	figures -fig all -parallel 1    # same bytes, one core
//	figures -fig 3a -full           # one figure at paper scale
//	figures -fig sweep              # judge threshold grid -> winner table
//	figures -fig scenarios          # production-shaped scenario suite, vanilla vs ERMS
//	figures -fig 8 -seed 7
//	figures -runtime-table          # serial-vs-parallel Markdown table
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"erms/internal/experiments"
	"erms/internal/metrics"
	"erms/internal/sweep"
)

// figOpts carries the flag values the figure bodies close over.
type figOpts struct {
	seed       int64
	full       bool
	plot       bool
	parallel   int    // inner fan-out for figures that sweep a grid themselves
	cores      int    // runtime.NumCPU at startup; tests pin it
	timing     bool   // append non-byte-stable timing tables to figure output
	scaleCache string // checkpoint cache dir for the scale sweep ("" = no cache)
}

// task adapts a figure body to a sweep cell. Bodies print nothing: they
// return their table, and main prints the merged result in submission
// order so output bytes never depend on scheduling.
func task(name string, f func() (string, error)) sweep.Task {
	return sweep.Task{Name: name, Run: func(context.Context) (string, error) { return f() }}
}

// sprintln renders a table exactly as the old fmt.Println did (String()
// plus a trailing newline).
func sprintln(v fmt.Stringer) string { return fmt.Sprintln(v) }

// buildTasks expands the -fig selection into sweep tasks plus the
// trailing notes (e.g. the explicit scale exclusion) printed after the
// merged output.
func buildTasks(fig string, o figOpts) (tasks []sweep.Task, notes []string) {
	want := func(name string) bool {
		return fig == "all" || strings.EqualFold(fig, name) ||
			(fig == "3" && name[0] == '3') // "3" means 3a + 3b
	}

	if want("3a") || want("3b") {
		dur := 45 * time.Minute
		files := 16
		if o.full {
			dur, files = 2*time.Hour, 30
		}
		tasks = append(tasks, task("3", func() (string, error) {
			rows := experiments.Fig3(experiments.Fig3Config{Seed: o.seed, Duration: dur, Files: files})
			return sprintln(experiments.Fig3Table(rows)), nil
		}))
	}
	if want("4") {
		dur := 2 * time.Hour
		if o.full {
			dur = 6 * time.Hour
		}
		tasks = append(tasks, task("4", func() (string, error) {
			rows := experiments.Fig4(o.seed, dur)
			out := sprintln(experiments.Fig4Table(rows))
			if o.plot {
				s := metrics.Series{Name: "cdf", Mark: '*'}
				for _, r := range rows {
					s.Xs = append(s.Xs, r.Hours)
					s.Ys = append(s.Ys, r.CDF)
				}
				ch := metrics.Chart{Title: "Figure 4 (shape)", XLabel: "hours",
					YLabel: "CDF", Series: []metrics.Series{s}}
				out += ch.Render() + "\n"
			}
			return out, nil
		}))
	}
	if want("5") {
		cfg := experiments.Fig5Config{Seed: o.seed, Duration: 3 * time.Hour, Files: 16}
		if o.full {
			cfg.Duration, cfg.Files = 6*time.Hour, 24
		}
		tasks = append(tasks, task("5", func() (string, error) {
			rows := experiments.Fig5(cfg)
			out := sprintln(experiments.Fig5Table(rows))
			if o.plot {
				van := metrics.Series{Name: "vanilla", Mark: 'v'}
				er := metrics.Series{Name: "erms", Mark: 'e'}
				for _, r := range rows {
					van.Xs = append(van.Xs, r.Hours)
					van.Ys = append(van.Ys, r.VanillaGB)
					er.Xs = append(er.Xs, r.Hours)
					er.Ys = append(er.Ys, r.ERMSGB)
				}
				ch := metrics.Chart{Title: "Figure 5 (shape)", XLabel: "hours",
					YLabel: "GB", Series: []metrics.Series{van, er}}
				out += ch.Render() + "\n"
			}
			return out, nil
		}))
	}
	if want("6") {
		cfg := experiments.Fig6Config{}
		if !o.full {
			cfg.FileSize = 512 * experiments.MB
		}
		tasks = append(tasks, task("6", func() (string, error) {
			return sprintln(experiments.Fig6Table(experiments.Fig6(cfg))), nil
		}))
	}
	if want("7") {
		cfg := experiments.Fig7Config{}
		if !o.full {
			cfg.Sizes = []float64{64 * experiments.MB, 256 * experiments.MB,
				1 * experiments.GB, 4 * experiments.GB}
		}
		tasks = append(tasks, task("7", func() (string, error) {
			return sprintln(experiments.Fig7Table(experiments.Fig7(cfg))), nil
		}))
	}
	if want("8") {
		cfg := experiments.Fig89Config{}
		repls := []int{2, 4, 6, 8}
		if o.full {
			repls = []int{1, 2, 3, 4, 5, 6, 7, 8}
		} else {
			cfg.FileSize = 512 * experiments.MB
		}
		tasks = append(tasks, task("8", func() (string, error) {
			return sprintln(experiments.Fig8Table(experiments.Fig8(cfg, repls))), nil
		}))
	}
	if want("9") {
		cfg := experiments.Fig89Config{}
		clients := 70
		repls := []int{2, 3, 4, 5, 6, 7, 8}
		if !o.full {
			cfg.FileSize = 512 * experiments.MB
			clients = 40
			repls = []int{2, 4, 6, 8}
		}
		tasks = append(tasks, task("9", func() (string, error) {
			return sprintln(experiments.Fig9Table(experiments.Fig9(cfg, clients, repls))), nil
		}))
	}
	if want("ablations") {
		// Five independent studies — separate cells so they overlap on the
		// pool, merged back in this order.
		tasks = append(tasks,
			task("ablation:placement", func() (string, error) {
				return sprintln(experiments.AblationPlacementTable(experiments.AblationPlacement())), nil
			}),
			task("ablation:idle", func() (string, error) {
				return sprintln(experiments.AblationIdleTable(experiments.AblationIdleScheduling())), nil
			}))
		dur := 40 * time.Minute
		if o.full {
			dur = 90 * time.Minute
		}
		tasks = append(tasks,
			task("ablation:thresholds", func() (string, error) {
				// The tau_M column of the threshold sweep at its 5-minute window.
				rows, _, err := experiments.ThresholdSweep(context.Background(), experiments.ThresholdSweepConfig{
					Seeds: []int64{o.seed}, Duration: dur, Files: 16, Parallel: o.parallel,
					TauMs: []float64{12, 8, 6, 4, 2}, WindowsMin: []float64{5}})
				if err != nil {
					return "", err
				}
				return sprintln(experiments.AblationThresholdsTable(rows)), nil
			}),
			task("ablation:speculation", func() (string, error) {
				return sprintln(experiments.AblationSpeculationTable(experiments.AblationSpeculation())), nil
			}))
	}
	if want("reliability") {
		trials := 2000
		if o.full {
			trials = 20000
		}
		tasks = append(tasks, task("reliability", func() (string, error) {
			return sprintln(experiments.ReliabilityTable(experiments.Reliability(trials, nil, o.seed))), nil
		}))
	}
	if want("failover") {
		cfg := experiments.FailoverConfig{Seed: o.seed}
		if o.full {
			cfg.Duration = 2 * time.Hour
			cfg.Crashes = 8
		}
		tasks = append(tasks, task("failover", func() (string, error) {
			rows := experiments.FailoverDemo(cfg)
			out := sprintln(experiments.FailoverTable(rows))
			if o.timing {
				out += sprintln(experiments.FailoverTimingTable(rows))
			}
			return out, nil
		}))
	}
	if want("degrade") {
		cfg := experiments.DegradeConfig{Seed: o.seed}
		if o.full {
			cfg.Files = 48
			cfg.Caps = []int{-1, 32, 16, 8, 4, 2}
		}
		tasks = append(tasks, task("degrade", func() (string, error) {
			return sprintln(experiments.DegradeTable(experiments.DegradeDemo(cfg))), nil
		}))
	}
	if want("durability") {
		cfg := experiments.DurabilityConfig{Seed: o.seed}
		if o.full {
			cfg.Duration = 6 * time.Hour
			cfg.Crashes = 12
			cfg.Partitions = 4
			cfg.Corruptions = 20
		}
		tasks = append(tasks, task("durability", func() (string, error) {
			return sprintln(experiments.DurabilityTable(experiments.Durability(cfg))), nil
		}))
	}
	if want("sweep") {
		cfg := experiments.ThresholdSweepConfig{Seeds: []int64{o.seed}, Parallel: o.parallel}
		if o.full {
			cfg.Duration = 45 * time.Minute
			cfg.Files = 16
			cfg.Seeds = []int64{o.seed, o.seed + 1, o.seed + 2}
		}
		tasks = append(tasks, task("sweep", func() (string, error) {
			rows, _, err := experiments.ThresholdSweep(context.Background(), cfg)
			if err != nil {
				return "", err
			}
			return sprintln(experiments.ThresholdSweepTable(cfg, rows)), nil
		}))
	}
	// The scale sweep joins `-fig all` on multi-core machines: the
	// checkpoint cache turns its dominant cost — building the 1,000-node /
	// 1M-file namespace — into a sub-second restore, and the fan-out
	// absorbs the rest. Single-core runs still get it by name.
	if strings.EqualFold(fig, "scale") || (fig == "all" && o.cores > 1) {
		cfg := experiments.ScaleConfig{Seed: o.seed, CacheDir: o.scaleCache}
		if o.full {
			cfg.Reads = 50000
		}
		tasks = append(tasks, task("scale", func() (string, error) {
			rows := experiments.ScaleDemo(cfg)
			out := sprintln(experiments.ScaleTable(rows))
			if o.timing {
				out += sprintln(experiments.ScaleTimingTable(rows))
			}
			return out, nil
		}))
	} else if fig == "all" {
		notes = append(notes,
			"scale: skipped (single core; the 1,000-datanode / 1M-file point would dominate — run with -fig scale)")
	}
	if want("scenarios") {
		cfg := experiments.ScenarioConfig{Seed: o.seed, Parallel: o.parallel}
		if o.full {
			cfg.Duration = 2 * time.Hour
		}
		tasks = append(tasks, task("scenarios", func() (string, error) {
			rows, results, err := experiments.Scenarios(context.Background(), cfg)
			if err != nil {
				return "", err
			}
			out := sprintln(experiments.ScenarioTable(cfg, rows))
			if o.timing {
				out += sprintln(sweep.TimingTable(results))
			}
			return out, nil
		}))
	}
	if want("trace") {
		tasks = append(tasks, task("trace", func() (string, error) {
			res := experiments.TraceDemo()
			t := &metrics.Table{
				Title:   "Trace demo: control-loop spans for one hot file (burst -> judge -> condor -> transfers -> drain)",
				Columns: []string{"span", "count", "total_s"},
			}
			for _, s := range res.Tracer.Summarize() {
				t.AddRowValues(s.Name, s.Count, s.Total.Seconds())
			}
			return sprintln(t) +
				"export the full tree with `ermsctl trace -o trace.json` and load it in https://ui.perfetto.dev\n", nil
		}))
	}
	return tasks, notes
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3a, 3b, 4, 5, 6, 7, 8, 9, ablations, reliability, failover, durability, degrade, sweep, scenarios, trace, scale, all")
	seed := flag.Int64("seed", 1, "workload seed")
	full := flag.Bool("full", false, "paper-scale runs (slower) instead of quick scale")
	plot := flag.Bool("plot", false, "also draw ASCII charts for the series figures (4, 5)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "sweep workers for the figure fan-out (1 = serial; merged output is identical either way)")
	timing := flag.Bool("timing", false, "append the per-figure timing tables (wall clock and heap — not byte-stable)")
	runtimeTable := flag.Bool("runtime-table", false, "time every selected figure serial vs parallel and print a Markdown runtime table (see EXPERIMENTS.md)")
	scaleCache := flag.String("scale-cache", filepath.Join(os.TempDir(), "erms-scale-cache"),
		"checkpoint cache dir for the scale sweep's namespaces (empty = rebuild every run)")
	flag.Parse()

	opts := figOpts{seed: *seed, full: *full, plot: *plot, parallel: *parallel,
		cores: runtime.NumCPU(), timing: *timing, scaleCache: *scaleCache}
	tasks, notes := buildTasks(*fig, opts)
	if len(tasks) == 0 {
		fmt.Fprintf(os.Stderr, "figures: unknown figure %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}

	if *runtimeTable {
		fmt.Print(runtimeTableMarkdown(*fig, opts))
		return
	}

	results, err := sweep.Run(context.Background(), sweep.Options{Parallel: *parallel}, tasks)
	fmt.Print(sweep.Merged(results))
	for _, n := range notes {
		fmt.Println(n)
	}
	if *timing {
		fmt.Println(sweep.TimingTable(results))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}

// runtimeTableMarkdown runs the selection twice — serially, then on the
// worker pool — and renders the per-figure wall clocks as the Markdown
// table EXPERIMENTS.md embeds and CI publishes. It also cross-checks the
// determinism contract: both runs' merged outputs must be byte-identical.
func runtimeTableMarkdown(fig string, o figOpts) string {
	o.timing = false // timing tables are not byte-stable; keep them out of the identity check
	serialOpts := o
	serialOpts.parallel = 1 // inner grids run serial too, so the serial column is honest
	serialTasks, _ := buildTasks(fig, serialOpts)
	parTasks, _ := buildTasks(fig, o)

	t0 := time.Now()
	serial, serr := sweep.Run(context.Background(), sweep.Options{Parallel: 1}, serialTasks)
	serialWall := time.Since(t0)
	t1 := time.Now()
	par, perr := sweep.Run(context.Background(), sweep.Options{Parallel: o.parallel}, parTasks)
	parWall := time.Since(t1)

	var b strings.Builder
	fmt.Fprintf(&b, "| figure | serial_s | parallel_s |\n|---|---:|---:|\n")
	var sum, crit time.Duration
	for i, s := range serial {
		p := par[i]
		fmt.Fprintf(&b, "| %s | %.2f | %.2f |\n", s.Name, s.Wall.Seconds(), p.Wall.Seconds())
		sum += s.Wall
		if s.Wall > crit {
			crit = s.Wall
		}
	}
	fmt.Fprintf(&b, "| **total wall** | **%.2f** | **%.2f** |\n\n", serialWall.Seconds(), parWall.Seconds())
	speedup := serialWall.Seconds() / parWall.Seconds()
	ideal := sum.Seconds() / crit.Seconds()
	fmt.Fprintf(&b, "- workers: %d (`-parallel`), cores: %d (`runtime.NumCPU`)\n", o.parallel, runtime.NumCPU())
	fmt.Fprintf(&b, "- measured speedup: %.2fx; figure-level critical path %.2f s (slowest figure) bounds the figure fan-out at %.2fx on enough cores — figures that sweep internal grids (sweep) split further, so the true bound is higher\n",
		speedup, crit.Seconds(), ideal)
	identical := sweep.Merged(serial) == sweep.Merged(par) && serr == nil && perr == nil
	fmt.Fprintf(&b, "- merged output byte-identical across worker counts: %v\n", identical)
	return b.String()
}
