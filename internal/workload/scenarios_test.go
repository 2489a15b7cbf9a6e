package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"erms/internal/topology"
)

// TestScenarioGoldenDeterminism: every scenario generator must be a pure
// function of its seed — same seed, twice in-process, byte-identical JSON
// (the swimgen golden property, extended to the scenario suite). Different
// seeds must differ, guarding against a generator that ignores its seed.
func TestScenarioGoldenDeterminism(t *testing.T) {
	for _, name := range ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			render := func(seed int64) []byte {
				tr, err := SynthesizeScenario(name, seed, time.Hour)
				if err != nil {
					t.Fatalf("SynthesizeScenario(%q): %v", name, err)
				}
				var buf bytes.Buffer
				if err := tr.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			a, b := render(7), render(7)
			if !bytes.Equal(a, b) {
				t.Fatalf("scenario %q: same seed produced different traces", name)
			}
			if bytes.Equal(a, render(8)) {
				t.Fatalf("scenario %q: different seeds produced identical traces", name)
			}
		})
	}
}

func TestScenarioUnknownName(t *testing.T) {
	if _, err := SynthesizeScenario("nope", 1, time.Hour); err == nil {
		t.Fatal("expected error for unknown scenario name")
	}
}

// TestScenarioTenantShape: every job carries a tenant tag, files live under
// per-tenant prefixes, and the configured arrival shares are roughly
// honored (ads should dominate batch).
func TestScenarioTenantShape(t *testing.T) {
	tr := SynthesizeMultiTenant(TenantConfig{Seed: 3, Duration: 2 * time.Hour})
	if len(tr.Jobs) == 0 {
		t.Fatal("no jobs synthesized")
	}
	counts := map[string]int{}
	for _, j := range tr.Jobs {
		if j.Tenant == "" {
			t.Fatalf("job %s has no tenant tag", j.Name)
		}
		if !strings.HasPrefix(j.File, "/tenant/"+j.Tenant+"/") {
			t.Fatalf("job %s reads %s outside its tenant's namespace", j.Name, j.File)
		}
		counts[j.Tenant]++
	}
	if counts["ads"] <= counts["batch"] {
		t.Fatalf("arrival shares not honored: ads=%d batch=%d", counts["ads"], counts["batch"])
	}
}

// TestScenarioFlashCrowdShape: the viral file exists from t=0, no job reads
// it before the spike, and a dense crowd reads it after.
func TestScenarioFlashCrowdShape(t *testing.T) {
	cfg := FlashConfig{Seed: 5, Duration: 2 * time.Hour}
	tr := SynthesizeFlashCrowd(cfg)
	found := false
	for _, f := range tr.Files {
		if f.Path == ViralPath {
			found = true
			if f.CreateAt != 0 {
				t.Fatalf("viral file must exist from t=0, created at %v", f.CreateAt)
			}
		}
	}
	if !found {
		t.Fatalf("trace has no %s", ViralPath)
	}
	viral := 0
	for _, j := range tr.Jobs {
		if j.File != ViralPath {
			continue
		}
		viral++
		if j.Submit < cfg.spikeAt() {
			t.Fatalf("viral read at %v before spike at %v", j.Submit, cfg.spikeAt())
		}
	}
	if viral < 100 {
		t.Fatalf("flash crowd too thin: %d viral reads", viral)
	}
	for i := 1; i < len(tr.Jobs); i++ {
		if tr.Jobs[i].Submit < tr.Jobs[i-1].Submit {
			t.Fatalf("jobs out of order at %d", i)
		}
	}
}

// TestScenarioPartialShape: every job is a ranged read inside its file, and
// head slices are hotter than tail slices.
func TestScenarioPartialShape(t *testing.T) {
	tr := SynthesizePartialRead(PartialConfig{Seed: 9, Duration: 2 * time.Hour})
	if len(tr.Jobs) == 0 {
		t.Fatal("no jobs synthesized")
	}
	head, tail := 0, 0
	for _, j := range tr.Jobs {
		if j.Length != readLength {
			t.Fatalf("job %s length %v, want %v", j.Name, j.Length, float64(readLength))
		}
		if j.Offset < 0 || j.Offset+j.Length > partialFileSize {
			t.Fatalf("job %s range [%v,%v) outside file of %v bytes",
				j.Name, j.Offset, j.Offset+j.Length, float64(partialFileSize))
		}
		if j.Offset < partialFileSize/2 {
			head++
		} else {
			tail++
		}
	}
	if head <= tail {
		t.Fatalf("read positions not head-skewed: head=%d tail=%d", head, tail)
	}
}

// TestScenarioDiurnalShape: the diurnal trace's arrival rate must actually
// swing — peak-phase thirds see far more jobs than trough phases.
func TestScenarioDiurnalShape(t *testing.T) {
	d := 2 * time.Hour
	tr := SynthesizeDiurnal(11, d)
	if len(tr.Jobs) == 0 {
		t.Fatal("no jobs synthesized")
	}
	// One full cycle spans d/3; bucket arrivals into sixths (half-cycles).
	buckets := make([]int, 6)
	for _, j := range tr.Jobs {
		i := int(float64(j.Submit) / float64(d) * 6)
		if i >= 6 {
			i = 5
		}
		buckets[i]++
	}
	max, min := buckets[0], buckets[0]
	for _, b := range buckets {
		if b > max {
			max = b
		}
		if b < min {
			min = b
		}
	}
	if min == 0 {
		min = 1
	}
	if float64(max)/float64(min) < 2 {
		t.Fatalf("diurnal swing too flat: buckets %v", buckets)
	}
}

// TestScenarioCSVRoundTrip: scenario traces survive the widened CSV format
// with tenant and range fields intact, and plain traces keep 5-field rows.
func TestScenarioCSVRoundTrip(t *testing.T) {
	tr := SynthesizeMultiTenant(TenantConfig{Seed: 2, Duration: 30 * time.Minute})
	tr.Jobs[0].Offset = 64 * topology.MB
	tr.Jobs[0].Length = 16 * topology.MB
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tenant,offset_mb,length_mb") {
		t.Fatal("scenario CSV missing extended JOBS header")
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != len(tr.Jobs) {
		t.Fatalf("job count changed: %d vs %d", len(tr.Jobs), len(back.Jobs))
	}
	for i := range tr.Jobs {
		if back.Jobs[i].Tenant != tr.Jobs[i].Tenant ||
			back.Jobs[i].Offset != tr.Jobs[i].Offset ||
			back.Jobs[i].Length != tr.Jobs[i].Length {
			t.Fatalf("job %d scenario fields changed: %+v vs %+v", i, tr.Jobs[i], back.Jobs[i])
		}
	}
	plain := Synthesize(Config{Seed: 1, Duration: 20 * time.Minute, NumFiles: 6})
	buf.Reset()
	if err := plain.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "tenant") {
		t.Fatal("plain trace should keep the classic 5-field JOBS layout")
	}
}

func TestJainFairness(t *testing.T) {
	if got := JainFairness([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal shares: got %v, want 1", got)
	}
	if got := JainFairness([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("single dominant share: got %v, want 0.25", got)
	}
	if got := JainFairness(nil); got != 1 {
		t.Fatalf("empty shares: got %v, want 1", got)
	}
}
