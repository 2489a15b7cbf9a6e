package workload

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"time"

	"erms/internal/hdfs"
	"erms/internal/mapred"
	"erms/internal/sim"
	"erms/internal/topology"
)

func small() Config {
	return Config{
		Seed:             42,
		Duration:         time.Hour,
		NumFiles:         20,
		MeanInterarrival: 20 * time.Second,
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := Synthesize(small())
	b := Synthesize(small())
	if len(a.Jobs) != len(b.Jobs) || len(a.Files) != len(b.Files) {
		t.Fatal("same seed produced different traces")
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs", i)
		}
	}
	c := small()
	c.Seed = 43
	if x := Synthesize(c); len(x.Jobs) == len(a.Jobs) {
		same := true
		for i := range x.Jobs {
			if x.Jobs[i] != a.Jobs[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestSynthesizeShape(t *testing.T) {
	tr := Synthesize(small())
	if len(tr.Files) != 20 {
		t.Fatalf("files = %d", len(tr.Files))
	}
	if len(tr.Jobs) < 50 { // ~180 expected at 20s inter-arrival over 1h
		t.Fatalf("jobs = %d, want >= 50", len(tr.Jobs))
	}
	// Jobs sorted by submit time, within the duration, referencing created
	// files.
	created := map[string]time.Duration{}
	for _, f := range tr.Files {
		created[f.Path] = f.CreateAt
		if f.Size < 64*topology.MB || f.Size > 4*topology.GB {
			t.Fatalf("file size %v out of bounds", f.Size)
		}
	}
	for i, j := range tr.Jobs {
		if j.Submit >= tr.Duration || j.Submit < 0 {
			t.Fatalf("job %d at %v outside trace", i, j.Submit)
		}
		if i > 0 && j.Submit < tr.Jobs[i-1].Submit {
			t.Fatal("jobs out of order")
		}
		at, ok := created[j.File]
		if !ok {
			t.Fatalf("job references unknown file %q", j.File)
		}
		if at > j.Submit {
			t.Fatalf("job %d accesses %q before creation", i, j.File)
		}
	}
}

func TestHeavyTailedPopularity(t *testing.T) {
	cfg := small()
	cfg.Duration = 4 * time.Hour
	tr := Synthesize(cfg)
	skew := tr.GiniSkew()
	if skew < 0.3 {
		t.Fatalf("workload not heavy-tailed: gini = %.2f", skew)
	}
	counts := tr.AccessCounts()
	if counts[0].Count <= counts[len(counts)-1].Count {
		t.Fatal("counts not descending")
	}
}

func TestFreshFilesGetHot(t *testing.T) {
	// A file created mid-trace should receive a burst of accesses soon
	// after creation relative to long after: popularity decays with age.
	cfg := Config{Seed: 7, Duration: 6 * time.Hour, NumFiles: 30,
		MeanInterarrival: 10 * time.Second, PopularityHalfLife: 30 * time.Minute}
	tr := Synthesize(cfg)
	early, late := 0, 0
	for _, f := range tr.Files {
		if f.CreateAt == 0 {
			continue
		}
		for _, j := range tr.Jobs {
			if j.File != f.Path {
				continue
			}
			age := j.Submit - f.CreateAt
			if age < time.Hour {
				early++
			} else if age > 2*time.Hour {
				late++
			}
		}
	}
	if early <= late {
		t.Fatalf("popularity did not decay: early=%d late=%d", early, late)
	}
}

func TestAccessCDFMonotone(t *testing.T) {
	tr := Synthesize(small())
	xs, ps := tr.AccessCDF()
	if len(xs) == 0 {
		t.Fatal("empty CDF")
	}
	if !sort.Float64sAreSorted(xs) || !sort.Float64sAreSorted(ps) {
		t.Fatal("CDF not monotone")
	}
	if ps[len(ps)-1] != 1 {
		t.Fatalf("CDF must end at 1, got %v", ps[len(ps)-1])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := Synthesize(small())
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != len(tr.Jobs) || len(back.Files) != len(tr.Files) {
		t.Fatal("round trip lost records")
	}
	if back.Jobs[0] != tr.Jobs[0] || back.Files[0] != tr.Files[0] {
		t.Fatal("round trip corrupted records")
	}
	if _, err := ReadJSON(bytes.NewBufferString("{broken")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// A negative createAt or submit is refused: replay would schedule it before
// the instant it is anchored at.
func TestJSONRejectsNegativeTimes(t *testing.T) {
	for _, src := range []string{
		`{"files":[{"path":"/x","size":1,"createAt":-1000000000}]}`,
		`{"files":[{"path":"/x","size":1}],"jobs":[{"file":"/x","submit":-1000000000}]}`,
	} {
		if _, err := ReadJSON(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Fatalf("ReadJSON(%s) = %v, want a negative-time error", src, err)
		}
	}
}

func TestPreloadAndReplayMapReduce(t *testing.T) {
	cfg := Config{Seed: 5, Duration: 30 * time.Minute, NumFiles: 8,
		MeanInterarrival: time.Minute, MaxFileSize: 256 * topology.MB}
	tr := Synthesize(cfg)
	e := sim.NewEngine()
	topo := topology.New(topology.Config{})
	h := hdfs.New(e, hdfs.Config{Topology: topo})
	mr := mapred.New(h, mapred.NewFIFO())
	Preload(e, h, tr)
	var doneJobs []*mapred.Job
	ReplayMapReduce(e, mr, tr, func(j *mapred.Job) { doneJobs = append(doneJobs, j) })
	e.RunUntil(tr.Horizon(time.Hour))
	if h.Files() != len(tr.Files) {
		t.Fatalf("files preloaded = %d, want %d", h.Files(), len(tr.Files))
	}
	if len(doneJobs) != len(tr.Jobs) {
		t.Fatalf("jobs finished = %d of %d", len(doneJobs), len(tr.Jobs))
	}
	for _, j := range doneJobs {
		if j.Err != nil {
			t.Fatalf("job %s: %v", j.Name, j.Err)
		}
	}
}

func TestReplayDirectReads(t *testing.T) {
	cfg := Config{Seed: 9, Duration: 20 * time.Minute, NumFiles: 5,
		MeanInterarrival: time.Minute, MaxFileSize: 128 * topology.MB}
	tr := Synthesize(cfg)
	e := sim.NewEngine()
	topo := topology.New(topology.Config{})
	h := hdfs.New(e, hdfs.Config{Topology: topo})
	Preload(e, h, tr)
	var done int
	ReplayReads(e, h, tr, func(r *hdfs.ReadResult) {
		if r.Err != nil {
			t.Errorf("read %s: %v", r.Path, r.Err)
		}
		done++
	})
	e.RunUntil(tr.Horizon(time.Hour))
	if done != len(tr.Jobs) {
		t.Fatalf("reads finished = %d of %d", done, len(tr.Jobs))
	}
}

func TestDiurnalModulationShapesArrivals(t *testing.T) {
	cfg := Config{
		Seed:             21,
		Duration:         4 * time.Hour,
		NumFiles:         10,
		MeanInterarrival: 5 * time.Second,
		DiurnalAmplitude: 0.9,
		DiurnalPeriod:    4 * time.Hour, // one full cycle over the trace
	}
	tr := Synthesize(cfg)
	// Peak quarter (centered on P/4) vs trough quarter (centered on 3P/4).
	peak, trough := 0, 0
	for _, j := range tr.Jobs {
		frac := float64(j.Submit) / float64(cfg.DiurnalPeriod)
		switch {
		case frac >= 0.125 && frac < 0.375:
			peak++
		case frac >= 0.625 && frac < 0.875:
			trough++
		}
	}
	if peak < 3*trough {
		t.Fatalf("diurnal shape weak: peak=%d trough=%d", peak, trough)
	}
	// Flat traces stay flat.
	flat := Synthesize(Config{Seed: 21, Duration: 4 * time.Hour, NumFiles: 10,
		MeanInterarrival: 5 * time.Second})
	p2, t2 := 0, 0
	for _, j := range flat.Jobs {
		frac := j.Submit.Hours() / 4
		switch {
		case frac >= 0.125 && frac < 0.375:
			p2++
		case frac >= 0.625 && frac < 0.875:
			t2++
		}
	}
	if p2 > 2*t2 || t2 > 2*p2 {
		t.Fatalf("flat trace skewed: %d vs %d", p2, t2)
	}
}
