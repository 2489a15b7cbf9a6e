package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestCounterMonotone(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("erms_decisions_total")
	c.Inc()
	c.Add(2.5)
	if c.Value() != 3.5 {
		t.Fatalf("counter = %v, want 3.5", c.Value())
	}
	if c.Int() != 3 {
		t.Fatalf("Int() = %d, want 3", c.Int())
	}
	if r.Counter("erms_decisions_total") != c {
		t.Fatal("second lookup should return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add should panic")
		}
	}()
	c.Add(-1)
}

func TestGaugeSetAddAndFunc(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("hdfs_active_reads")
	g.Set(4)
	g.Add(-1)
	if g.Value() != 3 {
		t.Fatalf("gauge = %v, want 3", g.Value())
	}
	n := 7.0
	r.GaugeFunc("hdfs_files", func() float64 { return n })
	if got := r.Gauge("hdfs_files").Value(); got != 7 {
		t.Fatalf("func gauge = %v, want 7", got)
	}
	n = 9
	if got := r.Gauge("hdfs_files").Value(); got != 9 {
		t.Fatalf("func gauge should re-evaluate, got %v", got)
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("erms_time_to_repair_seconds")
	h.Observe(1)
	h.ObserveDuration(2 * time.Second)
	if h.N() != 2 || h.Mean() != 1.5 {
		t.Fatalf("n=%d mean=%v", h.N(), h.Mean())
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge should panic")
		}
	}()
	r.Gauge("x_total")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("name with a space should panic")
		}
	}()
	r.Counter("bad name")
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total")
	r.Gauge("aa")
	r.Histogram("mm_seconds")
	names := r.Names()
	want := []string{"aa", "mm_seconds", "zz_total"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Gauge("a").Set(1.5)
	h := r.Histogram("c_seconds")
	h.Observe(1)
	h.Observe(3)
	visited := 5.0
	r.CounterFunc("d_total", func() float64 { return visited })
	if g := r.Gauge("d_total"); g.Value() != 5 {
		t.Fatalf("CounterFunc read through Gauge = %v, want 5", g.Value())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := `# TYPE a gauge
a 1.5
# TYPE b_total counter
b_total 2
# TYPE c_seconds summary
c_seconds{quantile="0.5"} 2
c_seconds{quantile="0.9"} 2.8
c_seconds{quantile="0.99"} 2.98
c_seconds_sum 4
c_seconds_count 2
# TYPE d_total counter
d_total 5
`
	if out != want {
		t.Fatalf("snapshot mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

// Satellite coverage: Quantile edge cases the generic tests skim over.
func TestQuantileEdgeCases(t *testing.T) {
	var empty Sample
	for _, q := range []float64{0, 0.5, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty.Quantile(%v) = %v, want 0", q, got)
		}
	}
	var one Sample
	one.Add(42)
	for _, q := range []float64{0, 0.3, 0.5, 1} {
		if got := one.Quantile(q); got != 42 {
			t.Fatalf("single-value Quantile(%v) = %v, want 42", q, got)
		}
	}
	var s Sample
	s.Add(1)
	s.Add(9)
	if s.Quantile(0) != 1 || s.Quantile(-0.5) != 1 {
		t.Fatal("q<=0 should clamp to min")
	}
	if s.Quantile(1) != 9 || s.Quantile(1.5) != 9 {
		t.Fatal("q>=1 should clamp to max")
	}
	if got := s.Quantile(0.5); math.Abs(got-5) > 1e-9 {
		t.Fatalf("median of {1,9} = %v, want 5", got)
	}
}

// Satellite coverage: TimeSeries.At boundary behavior at and around
// recorded points.
func TestTimeSeriesAtBoundaries(t *testing.T) {
	var empty TimeSeries
	if empty.At(time.Hour) != 0 {
		t.Fatal("empty series should read 0")
	}
	var ts TimeSeries
	ts.Add(2*time.Second, 5)
	ts.Add(2*time.Second, 6) // same-timestamp overwrite: later point wins
	ts.Add(4*time.Second, 7)
	if ts.At(2*time.Second-time.Nanosecond) != 0 {
		t.Fatal("just before the first point should read 0")
	}
	if ts.At(2*time.Second) != 6 {
		t.Fatalf("at a duplicated timestamp the latest value should win, got %v", ts.At(2*time.Second))
	}
	if ts.At(4*time.Second-time.Nanosecond) != 6 {
		t.Fatal("just before a point should read the previous step")
	}
	if ts.At(4*time.Second) != 7 || ts.At(time.Minute) != 7 {
		t.Fatal("at and past the last point should read its value")
	}
}
