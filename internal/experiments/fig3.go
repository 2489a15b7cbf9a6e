package experiments

import (
	"fmt"
	"strings"
	"time"

	"erms"
	"erms/internal/core"
	"erms/internal/mapred"
	"erms/internal/metrics"
	"erms/internal/workload"
)

// Fig3Config sizes the Figure 3 experiment (reading performance and data
// locality of SWIM-synthesized MapReduce jobs under FIFO and Fair
// schedulers, vanilla vs ERMS at three τ_M settings).
type Fig3Config struct {
	Seed     int64
	Duration time.Duration // trace length; default 90 min
	Files    int           // catalog size; default 30
	// TauMs are the ERMS thresholds swept as the paper's series
	// (ERMS_τM=8, 6, 4). Default {8, 6, 4}.
	TauMs []float64
}

func (c *Fig3Config) applyDefaults() {
	if c.Duration <= 0 {
		c.Duration = 90 * time.Minute
	}
	if c.Files <= 0 {
		c.Files = 30
	}
	if len(c.TauMs) == 0 {
		c.TauMs = []float64{8, 6, 4}
	}
}

// Fig3Row is one bar of Figure 3(a)/(b).
type Fig3Row struct {
	Scheduler  string  // "FIFO" or "Fair"
	System     string  // "vanilla" or "ERMS_tauM=N"
	Throughput float64 // average per-job read throughput, MB/s (Fig 3a)
	Locality   float64 // fraction of node-local map tasks (Fig 3b)
	Jobs       int
}

// Fig3 runs every scheduler × system variant over the same trace.
//
// Both variants run all nodes active (the Active/Standby contrast is
// Figures 8/9); here ERMS's benefit is elastic replication: hot inputs
// gain replicas, raising locality and read bandwidth.
func Fig3(cfg Fig3Config) []Fig3Row {
	cfg.applyDefaults()
	trace := synthesizeFig3Trace(cfg)
	var rows []Fig3Row
	for _, schedName := range []string{"FIFO", "Fair"} {
		variants := []struct {
			name string
			tauM float64 // 0 = vanilla
		}{{"vanilla", 0}}
		for _, tm := range cfg.TauMs {
			variants = append(variants, struct {
				name string
				tauM float64
			}{fmt.Sprintf("ERMS_tauM=%g", tm), tm})
		}
		for _, v := range variants {
			rows = append(rows, runFig3Variant(trace, schedName, v.name, v.tauM))
		}
	}
	return rows
}

// synthesizeFig3Trace builds the Figure-3 workload. Intensity matters: the
// judge's window counts must be able to exceed τ_M·r for hot files, so the
// trace submits a job every ~4 s on average (the paper replays a
// 3000-machine production trace onto 18 nodes, which is similarly dense).
func synthesizeFig3Trace(cfg Fig3Config) *workload.Trace {
	cfg.applyDefaults()
	return workload.Synthesize(workload.Config{
		Seed:             cfg.Seed,
		Duration:         cfg.Duration,
		NumFiles:         cfg.Files,
		MeanInterarrival: 4 * time.Second,
		MaxFileSize:      1 * GB,
	})
}

// replayJobs replays the trace's jobs through sys's MapReduce runtime
// until they drain and returns the per-job read throughputs and the
// node-local fraction of map tasks.
func replayJobs(sys *erms.System, trace *workload.Trace) (tp metrics.Mean, locality float64) {
	sys.Preload(trace)
	var localTasks, totalTasks int
	sys.ReplayJobs(trace, func(j *mapred.Job) {
		if j.Err != nil {
			return
		}
		tp.Add(j.ReadThroughputMBps())
		localTasks += j.NodeLocalTasks
		totalTasks += j.Tasks()
	})
	sys.RunUntil(trace.Horizon(time.Hour))
	sys.Stop()
	if totalTasks > 0 {
		locality = float64(localTasks) / float64(totalTasks)
	}
	return tp, locality
}

func runFig3Variant(trace *workload.Trace, schedName, sysName string, tauM float64) Fig3Row {
	opts := erms.Options{DisableERMS: true}
	if tauM != 0 {
		// Only τ_M is pinned; the dependent bounds (M_M, M_m, τ_DN) scale
		// from it so the whole hot-rule family moves with the series.
		opts = erms.Options{
			StandbyNodes: -1,
			Thresholds: core.Thresholds{
				TauM:    tauM,
				Window:  5 * time.Minute,
				ColdAge: 24 * time.Hour, // keep Fig 3 about replication, not coding
			},
			JudgePeriod: time.Minute,
		}
	}
	opts.Scheduler = strings.ToLower(schedName)
	tp, loc := replayJobs(erms.NewSystem(opts), trace)
	return Fig3Row{
		Scheduler:  schedName,
		System:     sysName,
		Throughput: tp.Value(),
		Locality:   loc,
		Jobs:       tp.N(),
	}
}

// Fig3Table renders the rows.
func Fig3Table(rows []Fig3Row) *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 3: reading throughput (a) and data locality (b) by scheduler and system",
		Columns: []string{"scheduler", "system", "throughput_MBps", "locality", "jobs"},
	}
	for _, r := range rows {
		t.AddRowValues(r.Scheduler, r.System, r.Throughput, r.Locality, r.Jobs)
	}
	return t
}
