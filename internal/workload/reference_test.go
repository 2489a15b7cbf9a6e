package workload

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"erms/internal/topology"
)

// referenceSynthesize is Synthesize as it stood before its job loop was
// split into a serial draw pass and parallel weighted picks, verbatim: one
// fresh weights slice and one exp per live file per job. It is the oracle
// the production synthesizer must match exactly; keep it unoptimised.
func referenceSynthesize(cfg Config) *Trace {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{Seed: cfg.Seed, Duration: cfg.Duration}

	// File catalog: sizes lognormal-ish (median near 256 MB), clamped.
	for i := 0; i < cfg.NumFiles; i++ {
		size := 256 * topology.MB * math.Exp(rng.NormFloat64()*1.2)
		if size < cfg.MinFileSize {
			size = cfg.MinFileSize
		}
		if size > cfg.MaxFileSize {
			size = cfg.MaxFileSize
		}
		var createAt time.Duration
		if i >= cfg.NumFiles/3 {
			createAt = time.Duration(rng.Float64() * float64(cfg.Duration) * 2 / 3)
		}
		tr.Files = append(tr.Files, FileSpec{
			Path:     fmt.Sprintf("/data/f%03d", i),
			Size:     math.Round(size/topology.MB) * topology.MB,
			CreateAt: createAt,
			Rank:     i, // assigned before shuffle of weights below
		})
	}
	// Popularity ranks permuted so creation order and popularity decorrelate
	// (fresh files are boosted by the decay term instead).
	perm := rng.Perm(cfg.NumFiles)
	for i := range tr.Files {
		tr.Files[i].Rank = perm[i]
	}
	sort.Slice(tr.Files, func(i, j int) bool { return tr.Files[i].CreateAt < tr.Files[j].CreateAt })

	// Base weights: Zipf over rank.
	baseW := make([]float64, cfg.NumFiles)
	for i, f := range tr.Files {
		baseW[i] = 1 / math.Pow(float64(f.Rank+1), cfg.ZipfSkew)
	}
	lambda := math.Ln2 / cfg.PopularityHalfLife.Seconds()

	// Job arrivals: a Poisson process, optionally inhomogeneous (diurnal
	// modulation) via Lewis thinning: draw candidates at the peak rate and
	// accept each with probability rate(t)/peak.
	peakBoost := 1 + cfg.DiurnalAmplitude
	rateAt := func(t time.Duration) float64 {
		if cfg.DiurnalAmplitude == 0 {
			return 1
		}
		phase := 2 * math.Pi * float64(t) / float64(cfg.DiurnalPeriod)
		return 1 + cfg.DiurnalAmplitude*math.Sin(phase)
	}
	now := time.Duration(0)
	jobID := 0
	for {
		gap := time.Duration(rng.ExpFloat64() * float64(cfg.MeanInterarrival) / peakBoost)
		now += gap
		if now >= cfg.Duration {
			break
		}
		if cfg.DiurnalAmplitude > 0 && rng.Float64() > rateAt(now)/peakBoost {
			continue // thinned out: off-peak instant
		}
		// Weighted pick over files that exist, with exponential age decay.
		total := 0.0
		weights := make([]float64, len(tr.Files))
		for i, f := range tr.Files {
			if f.CreateAt > now {
				continue
			}
			age := (now - f.CreateAt).Seconds()
			w := baseW[i] * math.Exp(-lambda*age)
			weights[i] = w
			total += w
		}
		if total <= 0 {
			continue
		}
		u := rng.Float64() * total
		pick := 0
		for i, w := range weights {
			u -= w
			if u <= 0 {
				pick = i
				break
			}
		}
		jobID++
		tr.Jobs = append(tr.Jobs, JobSpec{
			Submit:  now,
			File:    tr.Files[pick].Path,
			Name:    fmt.Sprintf("job%04d", jobID),
			Client:  rng.Intn(cfg.Clients),
			Compute: cfg.ComputePerMB,
		})
	}
	return tr
}

// randomConfig draws a small Synthesize config that reaches every branch of
// the job loop: catalogues of one or two files (none live at t=0),
// diurnal thinning, half-lives short enough that every weight underflows,
// and Zipf skews so steep that every file but the top-ranked one has a
// base weight of 0, so the newest live file alone cannot decide whether a
// job is drawn.
func randomConfig(rng *rand.Rand) Config {
	cfg := Config{
		Seed:               rng.Int63(),
		Duration:           time.Duration(1+rng.Intn(600)) * time.Minute,
		NumFiles:           1 + rng.Intn(120),
		MeanInterarrival:   time.Duration(1+rng.Intn(120)) * time.Second,
		ZipfSkew:           0.1 + 2*rng.Float64(),
		PopularityHalfLife: time.Duration(1+rng.Intn(7200)) * time.Second,
		Clients:            1 + rng.Intn(60),
		MaxFileSize:        float64(1+rng.Intn(8)) * topology.GB,
	}
	switch rng.Intn(4) {
	case 0:
		cfg.NumFiles = 1 + rng.Intn(2)
	case 1:
		cfg.PopularityHalfLife = time.Duration(1+rng.Intn(5)) * time.Second
	case 2:
		cfg.ZipfSkew = 2000
	}
	if rng.Intn(3) == 0 {
		cfg.DiurnalAmplitude = rng.Float64()
		cfg.DiurnalPeriod = time.Duration(1+rng.Intn(12)) * time.Hour
	}
	return cfg
}

// TestSynthesizeMatchesReference: Synthesize and the verbatim serial loop
// give deeply equal traces (a nil Jobs slice included) on 60 seeded random
// configs.
func TestSynthesizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 60; i++ {
		cfg := randomConfig(rng)
		want, got := referenceSynthesize(cfg), Synthesize(cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("config %d %+v: trace differs from the reference (%d vs %d jobs)",
				i, cfg, len(got.Jobs), len(want.Jobs))
		}
	}
}

// TestSynthesizeWorkerInvariance: the trace does not depend on how many
// workers make the weighted picks.
func TestSynthesizeWorkerInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(8))
	cfgs := []Config{
		{Seed: 1, Duration: 2 * time.Hour, NumFiles: 200, ZipfSkew: 0.8, MeanInterarrival: time.Second},
		{Seed: 2, Duration: 4 * time.Hour, NumFiles: 90, MeanInterarrival: 2 * time.Second, DiurnalAmplitude: 0.8},
		{Seed: 3, Duration: 10 * time.Hour, NumFiles: 30, MeanInterarrival: 20 * time.Second, PopularityHalfLife: time.Second},
	}
	for i := 0; i < 5; i++ {
		cfgs = append(cfgs, randomConfig(rng))
	}
	for i, cfg := range cfgs {
		runtime.GOMAXPROCS(1)
		one := Synthesize(cfg)
		runtime.GOMAXPROCS(8)
		eight := Synthesize(cfg)
		if !reflect.DeepEqual(one, eight) {
			t.Fatalf("config %d %+v: GOMAXPROCS 1 and 8 give different traces", i, cfg)
		}
	}
}
