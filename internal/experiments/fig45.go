package experiments

import (
	"time"

	"erms"
	"erms/internal/core"
	"erms/internal/metrics"
	"erms/internal/sim"
	"erms/internal/workload"
)

// Fig4Row is one point of the access-time CDF (Figure 4).
type Fig4Row struct {
	Hours float64
	CDF   float64
}

// Fig4 returns the cumulative distribution of access times for the
// standard trace — the workload-characterization figure.
func Fig4(seed int64, duration time.Duration) []Fig4Row {
	if duration <= 0 {
		duration = 6 * time.Hour
	}
	trace := workload.Synthesize(workload.Config{Seed: seed, Duration: duration})
	xs, ps := trace.AccessCDF()
	rows := make([]Fig4Row, len(xs))
	for i := range xs {
		rows[i] = Fig4Row{Hours: xs[i], CDF: ps[i]}
	}
	return rows
}

// Fig4Table renders the CDF (decimated to at most 40 rows for readability).
func Fig4Table(rows []Fig4Row) *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 4: CDF of data access times",
		Columns: []string{"time_h", "cdf"},
	}
	step := 1
	if len(rows) > 40 {
		step = len(rows) / 40
	}
	for i := 0; i < len(rows); i += step {
		t.AddRowValues(rows[i].Hours, rows[i].CDF)
	}
	if len(rows) > 0 {
		last := rows[len(rows)-1]
		t.AddRowValues(last.Hours, last.CDF)
	}
	return t
}

// Fig5Config sizes the storage-utilization-over-time experiment.
type Fig5Config struct {
	Seed     int64
	Duration time.Duration // default 4h
	Files    int           // default 24
	// SamplePeriod between storage samples; default 10 min.
	SamplePeriod time.Duration
}

func (c *Fig5Config) applyDefaults() {
	if c.Duration <= 0 {
		c.Duration = 4 * time.Hour
	}
	if c.Files <= 0 {
		c.Files = 24
	}
	if c.SamplePeriod <= 0 {
		c.SamplePeriod = 10 * time.Minute
	}
}

// Fig5Row is one sample of Figure 5.
type Fig5Row struct {
	Hours     float64
	VanillaGB float64
	ERMSGB    float64
}

// Fig5 replays the same trace on a vanilla cluster and on ERMS, sampling
// total storage. ERMS rides above vanilla while data is hot (extra
// replicas) and sinks below it once cold data is erasure-coded.
func Fig5(cfg Fig5Config) []Fig5Row {
	cfg.applyDefaults()
	wcfg := workload.Config{
		Seed:               cfg.Seed,
		Duration:           cfg.Duration / 2, // access activity in the first half; second half cools
		NumFiles:           cfg.Files,
		MeanInterarrival:   6 * time.Second,
		PopularityHalfLife: 25 * time.Minute,
		MaxFileSize:        1 * GB,
	}
	trace := workload.Synthesize(wcfg)

	runOne := func(withERMS bool) *metrics.TimeSeries {
		opts := erms.Options{DisableERMS: true}
		if withERMS {
			opts = erms.Options{
				StandbyNodes: 8,
				Thresholds: core.Thresholds{
					TauM:    4,
					ColdAge: 45 * time.Minute,
					Window:  5 * time.Minute,
				},
				JudgePeriod: 5 * time.Minute,
			}
		}
		sys := erms.NewSystem(opts)
		var ts metrics.TimeSeries
		sim.NewTicker(sys.Engine(), cfg.SamplePeriod, func(now time.Duration) {
			ts.Add(now, sys.StorageUsed())
		})
		sys.Preload(trace)
		sys.ReplayReads(trace, nil)
		sys.RunUntil(cfg.Duration)
		sys.Stop()
		return &ts
	}
	van := runOne(false)
	er := runOne(true)
	var rows []Fig5Row
	for t := cfg.SamplePeriod; t <= cfg.Duration; t += cfg.SamplePeriod {
		rows = append(rows, Fig5Row{
			Hours:     t.Hours(),
			VanillaGB: van.At(t) / GB,
			ERMSGB:    er.At(t) / GB,
		})
	}
	return rows
}

// Fig5Table renders the samples.
func Fig5Table(rows []Fig5Row) *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 5: storage space utilization over time (GB)",
		Columns: []string{"time_h", "vanilla_GB", "erms_GB"},
	}
	for _, r := range rows {
		t.AddRowValues(r.Hours, r.VanillaGB, r.ERMSGB)
	}
	return t
}
