// Package workload synthesizes and replays MapReduce/HDFS workloads with
// the statistical shape of the Facebook production trace the paper drives
// through SWIM: heavy-tailed file popularity, lognormal-ish job
// inter-arrivals, a file catalog that grows over time, and popularity that
// spikes at creation and decays with age — producing the hot → cooled →
// normal → cold lifecycle ERMS exploits.
package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"erms/internal/metrics"
	"erms/internal/topology"
)

// FileSpec describes one dataset file in the trace.
type FileSpec struct {
	Path     string        `json:"path"`
	Size     float64       `json:"size"` // bytes
	CreateAt time.Duration `json:"createAt"`
	Rank     int           `json:"rank"` // popularity rank (0 = hottest at birth)
}

// JobSpec is one synthesized job: a read of File submitted at Submit
// (either a MapReduce job over the file or a direct client read).
type JobSpec struct {
	Submit  time.Duration `json:"submit"`
	File    string        `json:"file"`
	Name    string        `json:"name"`
	Client  int           `json:"client"`  // suggested client node
	Compute time.Duration `json:"compute"` // per-MB map compute
	// Tenant tags the job for multi-tenant scenarios ("" = untenanted).
	Tenant string `json:"tenant,omitempty"`
	// Offset/Length make the job a byte-ranged read (hdfs.ReadRange) instead
	// of a whole-file access. Length 0 means whole file; Length > 0 reads
	// [Offset, Offset+Length) only.
	Offset float64 `json:"offset,omitempty"`
	Length float64 `json:"length,omitempty"`
}

// Trace is a complete synthetic workload.
type Trace struct {
	Seed     int64         `json:"seed"`
	Duration time.Duration `json:"duration"`
	Files    []FileSpec    `json:"files"`
	Jobs     []JobSpec     `json:"jobs"`
}

// Config tunes synthesis. Zero values take defaults chosen to mirror the
// paper's experiment scale (hours of trace over an 18-node cluster).
type Config struct {
	Seed     int64
	Duration time.Duration // default 6h
	// Files in the catalog; a third exist at t=0, the rest are created
	// uniformly over the first 2/3 of the trace. Default 60.
	NumFiles int
	// MeanInterarrival between job submissions; default 40s.
	MeanInterarrival time.Duration
	// ZipfSkew of base popularity; default 1.1 (heavy-tailed).
	ZipfSkew float64
	// PopularityHalfLife is the age at which a file's access propensity
	// halves; default 90 min. This produces the hot→cooled→cold lifecycle.
	PopularityHalfLife time.Duration
	// Clients is the number of client nodes to spread jobs over; default 18.
	Clients int
	// MinFileSize/MaxFileSize bound the lognormal-ish size draw; defaults
	// 64 MB / 4 GB.
	MinFileSize float64
	MaxFileSize float64
	// ComputePerMB for synthesized MapReduce jobs; default 8ms.
	ComputePerMB time.Duration
	// DiurnalAmplitude in [0,1) modulates the arrival rate sinusoidally —
	// production clusters breathe with the workday. 0 (default) keeps a
	// homogeneous Poisson process; 0.8 swings between 5x and 0.2/0.18…
	// of the mean rate across a DiurnalPeriod.
	DiurnalAmplitude float64
	// DiurnalPeriod is the modulation cycle; default 24h.
	DiurnalPeriod time.Duration
}

func (c *Config) applyDefaults() {
	if c.Duration <= 0 {
		c.Duration = 6 * time.Hour
	}
	if c.NumFiles <= 0 {
		c.NumFiles = 60
	}
	if c.MeanInterarrival <= 0 {
		c.MeanInterarrival = 40 * time.Second
	}
	if c.ZipfSkew <= 0 {
		c.ZipfSkew = 1.1
	}
	if c.PopularityHalfLife <= 0 {
		c.PopularityHalfLife = 90 * time.Minute
	}
	if c.Clients <= 0 {
		c.Clients = 18
	}
	if c.MinFileSize <= 0 {
		c.MinFileSize = 64 * topology.MB
	}
	if c.MaxFileSize <= 0 {
		c.MaxFileSize = 4 * topology.GB
	}
	if c.ComputePerMB <= 0 {
		c.ComputePerMB = 8 * time.Millisecond
	}
	if c.DiurnalAmplitude < 0 {
		c.DiurnalAmplitude = 0
	}
	if c.DiurnalAmplitude >= 1 {
		c.DiurnalAmplitude = 0.99
	}
	if c.DiurnalPeriod <= 0 {
		c.DiurnalPeriod = 24 * time.Hour
	}
}

// Synthesize builds a deterministic trace from cfg.
func Synthesize(cfg Config) *Trace {
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
			createAt = time.Duration(float64(rng.Float64()*float64(cfg.Duration)) * 2 / 3)
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
		return 1 + float64(cfg.DiurnalAmplitude*math.Sin(phase))
	}
	// The job loop runs in two phases (DESIGN.md §11). This serial pass
	// makes every rng draw in the order the trace has always used — gap,
	// thinning draw, pick uniform, client — and records each job's live
	// catalogue prefix: Files is sorted by CreateAt, so the files that exist
	// at now are Files[:live]. The weighted picks, which are all the work,
	// then run in parallel.
	pop := &popularity{files: tr.Files, baseW: baseW, lambda: lambda}
	scratch := make([]float64, len(tr.Files))
	var draws []pickDraw
	now := time.Duration(0)
	live := 0
	for {
		gap := time.Duration(rng.ExpFloat64() * float64(cfg.MeanInterarrival) / peakBoost)
		now += gap
		if now >= cfg.Duration {
			break
		}
		if cfg.DiurnalAmplitude > 0 && rng.Float64() > rateAt(now)/peakBoost {
			continue // thinned out: off-peak instant
		}
		for live < len(tr.Files) && tr.Files[live].CreateAt <= now {
			live++
		}
		if !pop.positive(scratch, now, live) {
			continue // every live weight underflowed: nothing to pick
		}
		draws = append(draws, pickDraw{live: live, u: rng.Float64()})
		tr.Jobs = append(tr.Jobs, JobSpec{Submit: now, Client: rng.Intn(cfg.Clients), Compute: cfg.ComputePerMB})
	}
	pop.pickAll(tr.Jobs, draws)
	return tr
}

// popularity is a trace's file popularity at any instant: each file's Zipf
// base weight decayed exponentially with its age.
type popularity struct {
	files  []FileSpec // sorted by CreateAt
	baseW  []float64
	lambda float64
}

// pickDraw is what the serial pass records for a job's weighted pick: the
// live catalogue prefix and the uniform the pick scales by the total.
type pickDraw struct {
	live int
	u    float64
}

// weights fills w[:live] with the live files' weights at now and returns
// their sum, added in index order. Files created at the same instant share
// one exp, so the t=0 third of the catalogue costs one call per job.
func (p *popularity) weights(w []float64, now time.Duration, live int) float64 {
	total := 0.0
	decay := 0.0
	for i := 0; i < live; i++ {
		if at := p.files[i].CreateAt; i == 0 || at != p.files[i-1].CreateAt {
			age := (now - at).Seconds()
			decay = math.Exp(-p.lambda * age)
		}
		wi := float64(p.baseW[i] * decay)
		w[i] = wi
		total += wi
	}
	return total
}

// positive reports whether the live weights at now sum to more than zero.
// The newest live file decays least, so its weight alone decides unless it
// is 0 (its decay or its base weight underflowed); then the full sum,
// computed as the pick computes it, does.
func (p *popularity) positive(scratch []float64, now time.Duration, live int) bool {
	if live == 0 {
		return false
	}
	newest := p.files[live-1].CreateAt
	if p.baseW[live-1]*math.Exp(-p.lambda*(now-newest).Seconds()) > 0 {
		return true
	}
	return p.weights(scratch, now, live) > 0
}

// pickAll fills in each job's File and Name. A job's pick reads only its
// own draw and the read-only catalogue, so GOMAXPROCS workers take
// contiguous chunks of jobs as they free up (late jobs cost more: the
// catalogue grows), and the trace cannot depend on the worker count.
func (p *popularity) pickAll(jobs []JobSpec, draws []pickDraw) {
	const chunk = 256
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := runtime.GOMAXPROCS(0); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]float64, len(p.files))
			for lo := int(next.Add(chunk)) - chunk; lo < len(jobs); lo = int(next.Add(chunk)) - chunk {
				for j := lo; j < min(lo+chunk, len(jobs)); j++ {
					d := draws[j]
					total := p.weights(buf, jobs[j].Submit, d.live)
					jobs[j].File = p.files[weightedPick(buf[:d.live], d.u*total)].Path
					jobs[j].Name = fmt.Sprintf("job%04d", j+1)
				}
			}
		}()
	}
	wg.Wait()
}

// weightedPick returns the index at which u, less each weight in turn,
// first reaches zero, or 0 when it never does.
func weightedPick(weights []float64, u float64) int {
	for i, w := range weights {
		u -= w
		if u <= 0 {
			return i
		}
	}
	return 0
}

// AccessCDF returns the cumulative distribution of job submission times —
// the paper's Figure 4 ("the cumulative distribution function of the data
// at the time they are accessed").
func (t *Trace) AccessCDF() (times []float64, cdf []float64) {
	var s metrics.Sample
	for _, j := range t.Jobs {
		s.Add(j.Submit.Hours())
	}
	return s.CDF()
}

// AccessCounts returns per-file access totals, descending.
type FileCount struct {
	Path  string
	Count int
}

// AccessCounts tallies accesses per file, most popular first.
func (t *Trace) AccessCounts() []FileCount {
	m := map[string]int{}
	for _, j := range t.Jobs {
		m[j.File]++
	}
	out := make([]FileCount, 0, len(m))
	for p, n := range m {
		out = append(out, FileCount{p, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// GiniSkew computes a simple skew statistic over per-file access counts
// (0 = uniform, →1 = fully concentrated); used to assert the workload is
// heavy-tailed as the paper claims.
func (t *Trace) GiniSkew() float64 {
	counts := t.AccessCounts()
	if len(counts) < 2 {
		return 0
	}
	n := len(counts)
	vals := make([]float64, n)
	for i, c := range counts {
		vals[n-1-i] = float64(c.Count) // ascending
	}
	var cum, totalCum, total float64
	for _, v := range vals {
		total += v
	}
	for _, v := range vals {
		cum += v
		totalCum += cum
	}
	if total == 0 {
		return 0
	}
	// Gini = 1 - 2*B where B is area under Lorenz curve.
	b := totalCum / (float64(n) * total)
	return 1 - 2*b + 1/float64(n)
}

// WriteJSON serializes the trace.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}

// ReadJSON parses a trace written by WriteJSON.
func ReadJSON(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("workload: decoding trace: %w", err)
	}
	return &t, nil
}

// ReadFile loads a trace file written by swimgen: CSV when the name ends
// in .csv, JSON otherwise.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		return ReadCSV(f)
	}
	return ReadJSON(f)
}
