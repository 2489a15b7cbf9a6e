package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"erms/internal/topology"
)

// This file synthesizes the production-shaped scenarios beyond the SWIM
// batch trace: multi-tenant Zipf mixes, diurnal commission/drain cycles, a
// flash crowd (cold file going viral mid-run), and partial/ranged reads.
// Each generator is deterministic: the same seed yields a byte-identical
// trace, which the golden tests and the figures invariance gate depend on.

// ScenarioNames lists the canonical scenario generators in display order.
func ScenarioNames() []string {
	return []string{"tenant", "diurnal", "flashcrowd", "partial"}
}

// SynthesizeScenario builds the canonical trace for a named scenario at the
// given seed and duration — the single entry point the experiments grid,
// figures, and the chaos storms share so they all exercise the same shapes.
func SynthesizeScenario(name string, seed int64, d time.Duration) (*Trace, error) {
	switch name {
	case "tenant":
		return SynthesizeMultiTenant(TenantConfig{Seed: seed, Duration: d}), nil
	case "diurnal":
		return SynthesizeDiurnal(seed, d), nil
	case "flashcrowd":
		return SynthesizeFlashCrowd(FlashConfig{Seed: seed, Duration: d}), nil
	case "partial":
		return SynthesizePartialRead(PartialConfig{Seed: seed, Duration: d}), nil
	}
	return nil, fmt.Errorf("workload: unknown scenario %q (want one of %v)", name, ScenarioNames())
}

// Tenant describes one tenant in a multi-tenant mix.
type Tenant struct {
	Name     string
	Files    int     // catalog size under /tenant/<name>/
	Share    float64 // fraction of job arrivals (normalized over tenants)
	ZipfSkew float64 // within-tenant popularity skew
}

// TenantConfig tunes SynthesizeMultiTenant. Zero values take defaults: three
// tenants with contrasting skew — a small hot interactive set, a mid-size
// analytics set, and a wide flat batch set — sharing one cluster.
type TenantConfig struct {
	Seed             int64
	Duration         time.Duration // default 2h
	MeanInterarrival time.Duration // default 5s (judge-visible intensity)
	Clients          int           // default 18
	MinFileSize      float64       // default 64 MB
	MaxFileSize      float64       // default 1 GB
	ComputePerMB     time.Duration // default 8ms
	Tenants          []Tenant      // default ads/etl/batch mix
}

func (c *TenantConfig) applyDefaults() {
	if c.Duration <= 0 {
		c.Duration = 2 * time.Hour
	}
	if c.MeanInterarrival <= 0 {
		c.MeanInterarrival = 3 * time.Second
	}
	if c.Clients <= 0 {
		c.Clients = 18
	}
	if c.MinFileSize <= 0 {
		c.MinFileSize = 64 * topology.MB
	}
	if c.MaxFileSize <= 0 {
		c.MaxFileSize = topology.GB
	}
	if c.ComputePerMB <= 0 {
		c.ComputePerMB = 8 * time.Millisecond
	}
	if len(c.Tenants) == 0 {
		c.Tenants = []Tenant{
			{Name: "ads", Files: 8, Share: 0.5, ZipfSkew: 1.6},
			{Name: "etl", Files: 16, Share: 0.3, ZipfSkew: 1.1},
			{Name: "batch", Files: 24, Share: 0.2, ZipfSkew: 0.4},
		}
	}
}

// SynthesizeMultiTenant builds a trace where several tenants with different
// popularity skews and arrival shares contend for one cluster. Every job is
// tagged with its tenant so replay can attribute throughput per tenant and
// the isolation oracle can check no tenant is starved.
func SynthesizeMultiTenant(cfg TenantConfig) *Trace {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{Seed: cfg.Seed, Duration: cfg.Duration}

	// Per-tenant catalogs, all present at t=0 (the contention is the story
	// here, not catalog growth).
	catalog := make([][]int, len(cfg.Tenants)) // tenant -> indices into tr.Files
	for ti, tn := range cfg.Tenants {
		for i := 0; i < tn.Files; i++ {
			size := 128 * topology.MB * math.Exp(rng.NormFloat64())
			if size < cfg.MinFileSize {
				size = cfg.MinFileSize
			}
			if size > cfg.MaxFileSize {
				size = cfg.MaxFileSize
			}
			catalog[ti] = append(catalog[ti], len(tr.Files))
			tr.Files = append(tr.Files, FileSpec{
				Path: fmt.Sprintf("/tenant/%s/f%03d", tn.Name, i),
				Size: math.Round(size/topology.MB) * topology.MB,
				Rank: i,
			})
		}
	}

	shareTotal := 0.0
	for _, tn := range cfg.Tenants {
		shareTotal += tn.Share
	}
	now := time.Duration(0)
	jobID := 0
	for {
		now += time.Duration(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
		if now >= cfg.Duration {
			break
		}
		// Pick the tenant by arrival share, then the file by that tenant's
		// own Zipf skew.
		u := rng.Float64() * shareTotal
		ti := 0
		for i, tn := range cfg.Tenants {
			u -= tn.Share
			if u <= 0 {
				ti = i
				break
			}
		}
		tn := cfg.Tenants[ti]
		total := 0.0
		weights := make([]float64, len(catalog[ti]))
		for i := range catalog[ti] {
			weights[i] = 1 / math.Pow(float64(i+1), tn.ZipfSkew)
			total += weights[i]
		}
		u = rng.Float64() * total
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
			File:    tr.Files[catalog[ti][pick]].Path,
			Name:    fmt.Sprintf("job%04d", jobID),
			Client:  rng.Intn(cfg.Clients),
			Compute: cfg.ComputePerMB,
			Tenant:  tn.Name,
		})
	}
	return tr
}

// SynthesizeDiurnal builds a trace whose arrival rate swings hard between
// peak and trough several times over the run — the load shape that drives
// the standby commission/drain cycle repeatedly rather than once. It is the
// base synthesizer with a high amplitude and a period short enough that a
// 2h run sees three full day/night cycles.
func SynthesizeDiurnal(seed int64, d time.Duration) *Trace {
	if d <= 0 {
		d = 2 * time.Hour
	}
	return Synthesize(Config{
		Seed:             seed,
		Duration:         d,
		NumFiles:         36,
		MeanInterarrival: 4 * time.Second,
		DiurnalAmplitude: 0.9,
		DiurnalPeriod:    d / 3,
		MaxFileSize:      topology.GB,
	})
}

// FlashConfig tunes SynthesizeFlashCrowd.
type FlashConfig struct {
	Seed     int64
	Duration time.Duration // default 2h
	// SpikeAt is when the cold file goes viral; default 40% into the run
	// (late enough that the judge has seen it idle).
	SpikeAt time.Duration
	// SpikeDuration is how long the crowd lasts; default 25% of the run.
	SpikeDuration time.Duration
	// SpikeInterarrival is the mean gap between viral reads during the
	// burst; default 1.5s — far above the hot threshold.
	SpikeInterarrival time.Duration
	// ViralSize is the viral file's size; default 256 MB.
	ViralSize float64
	// Background tunes the ambient workload (seed/duration are overridden).
	Background Config
}

// ViralPath is the file that goes viral in the flash-crowd scenario.
const ViralPath = "/viral/clip"

func (c *FlashConfig) applyDefaults() {
	if c.Duration <= 0 {
		c.Duration = 2 * time.Hour
	}
	if c.SpikeAt <= 0 {
		c.SpikeAt = c.Duration * 2 / 5
	}
	if c.SpikeDuration <= 0 {
		c.SpikeDuration = c.Duration / 4
	}
	if c.SpikeInterarrival <= 0 {
		c.SpikeInterarrival = 1500 * time.Millisecond
	}
	if c.ViralSize <= 0 {
		c.ViralSize = 256 * topology.MB
	}
}

// SynthesizeFlashCrowd builds an ambient trace plus a cold file (ViralPath,
// present from t=0, untouched) that suddenly draws a dense read crowd at
// SpikeAt. The judge's reaction time — first viral read to replica-add
// completion — is the scenario's headline metric.
func SynthesizeFlashCrowd(cfg FlashConfig) *Trace {
	cfg.applyDefaults()
	bg := cfg.Background
	bg.Seed = cfg.Seed
	bg.Duration = cfg.Duration
	if bg.NumFiles <= 0 {
		bg.NumFiles = 24
	}
	if bg.MeanInterarrival <= 0 {
		bg.MeanInterarrival = 20 * time.Second
	}
	if bg.MaxFileSize <= 0 {
		bg.MaxFileSize = topology.GB
	}
	tr := Synthesize(bg)

	// The viral file exists from the start, cold: no background job touches
	// /viral/, so every pre-spike judge pass sees it idle.
	tr.Files = append(tr.Files, FileSpec{Path: ViralPath, Size: cfg.ViralSize, Rank: len(tr.Files)})

	// The crowd: a dedicated RNG stream (offset seed) so the burst shape
	// does not perturb the ambient trace.
	crng := rand.New(rand.NewSource(cfg.Seed ^ 0x666c617368)) // "flash"
	now := cfg.SpikeAt
	end := cfg.SpikeAt + cfg.SpikeDuration
	if end > cfg.Duration {
		end = cfg.Duration
	}
	vid := 0
	for {
		now += time.Duration(crng.ExpFloat64() * float64(cfg.SpikeInterarrival))
		if now >= end {
			break
		}
		vid++
		tr.Jobs = append(tr.Jobs, JobSpec{
			Submit:  now,
			File:    ViralPath,
			Name:    fmt.Sprintf("viral%04d", vid),
			Client:  crng.Intn(18),
			Compute: 8 * time.Millisecond,
			Tenant:  "crowd",
		})
	}
	// Merge burst into the ambient timeline; stable sort keeps equal-time
	// ordering deterministic.
	sort.SliceStable(tr.Jobs, func(i, j int) bool { return tr.Jobs[i].Submit < tr.Jobs[j].Submit })
	return tr
}

// PartialConfig tunes SynthesizePartialRead.
type PartialConfig struct {
	Seed             int64
	Duration         time.Duration // default 2h
	NumFiles         int           // default 4 (half hot-head, half scan)
	FileSize         float64       // default 256 MB (4 blocks at 64 MB)
	ReadLength       float64       // bytes per pread; default 16 MB
	MeanInterarrival time.Duration // default 600ms (block heat must build)
	Clients          int           // default 18
	// HeadSkew is the Zipf skew over read positions within hot-head files;
	// default 1.6, concentrating heat on the first block so formula (2)
	// fires there. Scan files draw positions uniformly, spreading moderate
	// heat over every block so formula (3) fires instead.
	HeadSkew float64
}

func (c *PartialConfig) applyDefaults() {
	if c.Duration <= 0 {
		c.Duration = 2 * time.Hour
	}
	if c.NumFiles <= 0 {
		c.NumFiles = 4
	}
	if c.FileSize <= 0 {
		c.FileSize = 256 * topology.MB
	}
	if c.ReadLength <= 0 {
		c.ReadLength = 16 * topology.MB
	}
	if c.MeanInterarrival <= 0 {
		c.MeanInterarrival = 600 * time.Millisecond
	}
	if c.Clients <= 0 {
		c.Clients = 18
	}
	if c.HeadSkew <= 0 {
		c.HeadSkew = 1.6
	}
}

// SynthesizePartialRead builds an index-lookup-shaped trace: multi-block
// files served entirely by byte-ranged reads. File-level open counts stay
// at zero (preads are not opens), so only the block-level judge axes can
// see the heat — and the two file classes light them up separately:
// hot-head files (/index/headNN) draw positions Zipf-skewed onto the first
// block, pushing one block past M_M (formula 2), while scan files
// (/index/scanNN) draw positions uniformly, lifting every block past M_m
// without any single block crossing M_M (formula 3 via ε).
func SynthesizePartialRead(cfg PartialConfig) *Trace {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{Seed: cfg.Seed, Duration: cfg.Duration}
	nHead := (cfg.NumFiles + 1) / 2
	for i := 0; i < cfg.NumFiles; i++ {
		path := fmt.Sprintf("/index/head%02d", i)
		if i >= nHead {
			path = fmt.Sprintf("/index/scan%02d", i-nHead)
		}
		tr.Files = append(tr.Files, FileSpec{Path: path, Size: cfg.FileSize, Rank: i})
	}
	slots := int(cfg.FileSize / cfg.ReadLength)
	if slots < 1 {
		slots = 1
	}
	headW := make([]float64, slots)
	headTotal := 0.0
	for i := range headW {
		headW[i] = 1 / math.Pow(float64(i+1), cfg.HeadSkew)
		headTotal += headW[i]
	}
	now := time.Duration(0)
	jobID := 0
	for {
		now += time.Duration(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
		if now >= cfg.Duration {
			break
		}
		fi := rng.Intn(cfg.NumFiles)
		slot := 0
		if fi < nHead {
			u := rng.Float64() * headTotal
			for i, w := range headW {
				u -= w
				if u <= 0 {
					slot = i
					break
				}
			}
		} else {
			slot = rng.Intn(slots)
		}
		jobID++
		tr.Jobs = append(tr.Jobs, JobSpec{
			Submit:  now,
			File:    tr.Files[fi].Path,
			Name:    fmt.Sprintf("pread%04d", jobID),
			Client:  rng.Intn(cfg.Clients),
			Compute: 0,
			Offset:  float64(slot) * cfg.ReadLength,
			Length:  cfg.ReadLength,
		})
	}
	return tr
}

// TenantBytes sums bytes read per tenant from replay results — feed it the
// accumulated (JobSpec, ReadResult) pairs and pass the shares to
// JainFairness for an isolation score.
func TenantBytes(pairs map[string]float64) (names []string, shares []float64) {
	for name := range pairs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		shares = append(shares, pairs[name])
	}
	return names, shares
}

// JainFairness computes Jain's fairness index over the given shares:
// (Σx)² / (n·Σx²), 1.0 when perfectly equal, →1/n when one share dominates.
func JainFairness(shares []float64) float64 {
	if len(shares) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range shares {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(shares)) * sq)
}
