package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 || m.N() != 0 {
		t.Fatal("zero Mean should report 0")
	}
	m.Add(2)
	m.Add(4)
	if m.Value() != 3 || m.N() != 2 {
		t.Fatalf("mean = %v n=%d", m.Value(), m.N())
	}
}

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("empty sample should report zeros")
	}
	for _, v := range []float64{5, 1, 3} {
		s.Add(v)
	}
	if s.N() != 3 || s.Mean() != 3 {
		t.Fatalf("stats wrong: n=%d mean=%v", s.N(), s.Mean())
	}
	if s.Quantile(0.5) != 3 {
		t.Fatalf("median = %v", s.Quantile(0.5))
	}
	if s.Quantile(0) != 1 || s.Quantile(1) != 5 {
		t.Fatal("extreme quantiles")
	}
	if got := s.Quantile(0.25); math.Abs(got-2) > 1e-9 {
		t.Fatalf("q25 = %v, want 2 (interpolated)", got)
	}
}

func TestSampleAddAfterQuantile(t *testing.T) {
	var s Sample
	s.Add(10)
	_ = s.Quantile(0.5)
	s.Add(1) // must re-sort
	if s.Quantile(0) != 1 {
		t.Fatal("sample did not re-sort after Add")
	}
}

func TestCDF(t *testing.T) {
	var s Sample
	for _, v := range []float64{1, 2, 2, 3} {
		s.Add(v)
	}
	xs, ps := s.CDF()
	wantX := []float64{1, 2, 3}
	wantP := []float64{0.25, 0.75, 1.0}
	if len(xs) != 3 {
		t.Fatalf("CDF points = %v %v", xs, ps)
	}
	for i := range wantX {
		if xs[i] != wantX[i] || math.Abs(ps[i]-wantP[i]) > 1e-9 {
			t.Fatalf("CDF = (%v,%v), want (%v,%v)", xs, ps, wantX, wantP)
		}
	}
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	ts.Add(time.Second, 10)
	ts.Add(3*time.Second, 20)
	if ts.At(0) != 0 {
		t.Fatal("before first point should be 0")
	}
	if ts.At(time.Second) != 10 || ts.At(2*time.Second) != 10 {
		t.Fatal("step interpolation wrong")
	}
	if ts.At(5*time.Second) != 20 {
		t.Fatal("after last point")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "Fig X", Columns: []string{"replicas", "throughput"}}
	tb.AddRowValues(3, 45.678)
	tb.AddRowValues("hdr", "x")
	out := tb.String()
	if !strings.Contains(out, "# Fig X") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "replicas") || !strings.Contains(out, "45.68") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:      "3",
		123.45: "123.5",
		4.5:    "4.50",
		0.1234: "0.1234",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Fatalf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

// Property: quantiles are monotone in q and bounded by the extremes.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(vals []float64, q1, q2 float64) bool {
		var s Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		a, b := s.Quantile(q1), s.Quantile(q2)
		return a <= b && a >= s.Quantile(0) && b <= s.Quantile(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the CDF is nondecreasing in both coordinates and ends at 1.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(vals []float64) bool {
		var s Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		xs, ps := s.CDF()
		if !sort.Float64sAreSorted(xs) {
			return false
		}
		for i := 1; i < len(ps); i++ {
			if ps[i] < ps[i-1] {
				return false
			}
		}
		return math.Abs(ps[len(ps)-1]-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChartRender(t *testing.T) {
	ch := &Chart{
		Title:  "storage over time",
		XLabel: "hours",
		YLabel: "GB",
		Width:  40,
		Height: 8,
		Series: []Series{
			{Name: "vanilla", Xs: []float64{0, 1, 2, 3}, Ys: []float64{10, 20, 20, 20}, Mark: 'v'},
			{Name: "erms", Xs: []float64{0, 1, 2, 3}, Ys: []float64{10, 35, 20, 12}, Mark: 'e'},
		},
	}
	out := ch.Render()
	for _, want := range []string{"storage over time", "legend:", "v vanilla", "e erms",
		"x: hours  y: GB", "35", "10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	// Peak value appears on the top row.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[1], "e") {
		t.Fatalf("peak mark not on top row:\n%s", out)
	}
}

func TestChartEdgeCases(t *testing.T) {
	empty := &Chart{Title: "t"}
	if !strings.Contains(empty.Render(), "(no data)") {
		t.Fatal("empty chart")
	}
	flat := &Chart{Series: []Series{{Name: "f", Xs: []float64{1, 1}, Ys: []float64{5, 5}}}}
	if out := flat.Render(); !strings.Contains(out, "*") {
		t.Fatalf("flat series not drawn:\n%s", out)
	}
}
