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
			Compute: computePerMB,
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
// configs and on two 200 h configs at a 5-minute half-life whose picks
// take the exact loop: over 16 files a late file's exp(λ·at) overflows,
// so every pick does; over 6 files only those whose newest live file is
// over 160 h old, its weight below 1e-290, do. The configs the figures,
// ermsctl and the hotdata example pass to Synthesize, and the swim-large
// shape at seeds 1–3, pick every job by prefix sums.
func TestSynthesizeMatchesReference(t *testing.T) {
	long := func(files int) Config {
		return Config{Seed: 1, Duration: 200 * time.Hour, NumFiles: files,
			MeanInterarrival: 30 * time.Second, PopularityHalfLife: 5 * time.Minute}
	}
	rng := rand.New(rand.NewSource(33))
	cfgs := []Config{long(16), long(6)}
	for i := 0; i < 60; i++ {
		cfgs = append(cfgs, randomConfig(rng))
	}
	for i, cfg := range cfgs {
		got, fallbacks := synthesize(cfg)
		if want := referenceSynthesize(cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("config %d %+v: trace differs from the reference (%d vs %d jobs)",
				i, cfg, len(got.Jobs), len(want.Jobs))
		}
		switch {
		case i == 0 && fallbacks != len(got.Jobs):
			t.Errorf("16-file 200 h config: %d of %d picks exact, want all", fallbacks, len(got.Jobs))
		case i == 1 && (fallbacks == 0 || fallbacks == len(got.Jobs)):
			t.Errorf("6-file 200 h config: %d of %d picks exact, want some", fallbacks, len(got.Jobs))
		}
	}

	shipped := map[string]Config{
		"fig3":       {Seed: 1, Duration: 45 * time.Minute, NumFiles: 16, MeanInterarrival: 4 * time.Second, MaxFileSize: topology.GB},
		"fig3 full":  {Seed: 1, Duration: 2 * time.Hour, NumFiles: 30, MeanInterarrival: 4 * time.Second, MaxFileSize: topology.GB},
		"fig4":       {Seed: 1, Duration: 2 * time.Hour},
		"fig4 full":  {Seed: 1, Duration: 6 * time.Hour},
		"fig5":       {Seed: 1, Duration: 90 * time.Minute, NumFiles: 16, MeanInterarrival: 6 * time.Second, PopularityHalfLife: 25 * time.Minute, MaxFileSize: topology.GB},
		"fig5 full":  {Seed: 1, Duration: 3 * time.Hour, NumFiles: 24, MeanInterarrival: 6 * time.Second, PopularityHalfLife: 25 * time.Minute, MaxFileSize: topology.GB},
		"durability": {Seed: 1, Duration: 2 * time.Hour, NumFiles: 16, MeanInterarrival: 10 * time.Second, MaxFileSize: 512 * topology.MB},
		"ermsctl":    {Seed: 1, Duration: time.Hour, NumFiles: 20, MeanInterarrival: 6 * time.Second},
		"hotdata":    {Seed: 1, Duration: 45 * time.Minute, NumFiles: 16, MeanInterarrival: 4 * time.Second, MaxFileSize: topology.GB},
	}
	for seed := int64(1); seed <= 3; seed++ {
		shipped[fmt.Sprintf("swim-large seed %d", seed)] = swimLargeShape(seed)
	}
	for name, cfg := range shipped {
		if _, fallbacks := synthesize(cfg); fallbacks != 0 {
			t.Errorf("%s: %d picks took the exact loop, want 0", name, fallbacks)
		}
	}
}

// TestPickAtBoundaries: a uniform that puts the target on a prefix sum, or
// one ulp either side of it, is where rounding can part the binary search
// from the exact loop, so pick must hand it to the exact loop; a target
// mid-way between two sums takes the search, and both agree with the
// exact loop.
func TestPickAtBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 50; trial++ {
		files := make([]FileSpec, 2+rng.Intn(40))
		baseW := make([]float64, len(files))
		for i := range files {
			if i > 0 {
				files[i].CreateAt = files[i-1].CreateAt + time.Duration(rng.Intn(3))*time.Duration(rng.Intn(600))*time.Second
			}
			baseW[i] = 1 / math.Pow(float64(1+rng.Intn(len(files))), 0.1+2*rng.Float64())
		}
		p := newPopularity(files, baseW, math.Ln2/float64(60+rng.Intn(7200)))
		now := files[len(files)-1].CreateAt + time.Duration(rng.Intn(600))*time.Second
		live := len(files)
		newest := p.newest(now, live)
		check := func(u float64, wantExact bool) {
			got, exact := p.pick(now, live, u, newest)
			want := weightedPick(p.w[:live], u*p.weights(now, live))
			if got != want || exact != wantExact {
				t.Fatalf("trial %d u %v: pick %d (exact %v), exact loop %d, want exact %v",
					trial, u, got, exact, want, wantExact)
			}
		}
		total := p.sums[live]
		for k := 1; k < live; k++ {
			if lo, hi := p.sums[k-1], p.sums[k]; hi-lo > 1e-6*total {
				check((lo+hi)/2/total, false)
			}
			u := p.sums[k] / total
			check(math.Nextafter(u, 0), true)
			check(u, true)
			check(math.Nextafter(u, 1), true)
		}
	}
}

// TestSynthesizeWorkerInvariance: the trace does not depend on GOMAXPROCS.
// Synthesis runs on one goroutine, so this guards against a parallel pick
// coming back with a dependence on the worker count.
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
