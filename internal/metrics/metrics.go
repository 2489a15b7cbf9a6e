// Package metrics provides the small statistics toolkit the experiments
// use: running means, CDFs, percentiles, time series sampled in virtual
// time, and plain-text table rendering for figure regeneration.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Mean is a running mean with count.
type Mean struct {
	sum float64
	n   int
}

// Add accumulates one observation.
func (m *Mean) Add(v float64) { m.sum += v; m.n++ }

// Value returns the mean, or 0 with no observations.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// N returns the observation count.
func (m *Mean) N() int { return m.n }

// Sample is a collection of observations supporting quantiles.
type Sample struct {
	vals   []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.vals) }

// Mean returns the arithmetic mean.
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation.
func (s *Sample) Quantile(q float64) float64 {
	s.ensureSorted()
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return s.vals[0]
	}
	if q >= 1 {
		return s.vals[n-1]
	}
	pos := float64(q * float64(n-1))
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return s.vals[n-1]
	}
	return float64(s.vals[lo]*(1-frac)) + float64(s.vals[lo+1]*frac)
}

// CDF returns (x, F(x)) pairs at each distinct observation, suitable for
// plotting the paper's Figure 4.
func (s *Sample) CDF() (xs, ps []float64) {
	s.ensureSorted()
	n := len(s.vals)
	for i := 0; i < n; i++ {
		if i+1 < n && s.vals[i+1] == s.vals[i] {
			continue
		}
		xs = append(xs, s.vals[i])
		ps = append(ps, float64(i+1)/float64(n))
	}
	return xs, ps
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// TimeSeries records (virtual time, value) points.
type TimeSeries struct {
	Times  []time.Duration
	Values []float64
}

// Add appends a point. Times should be nondecreasing.
func (ts *TimeSeries) Add(t time.Duration, v float64) {
	ts.Times = append(ts.Times, t)
	ts.Values = append(ts.Values, v)
}

// At returns the most recent value at or before t (step interpolation),
// or 0 if t precedes the first point.
func (ts *TimeSeries) At(t time.Duration) float64 {
	i := sort.Search(len(ts.Times), func(i int) bool { return ts.Times[i] > t })
	if i == 0 {
		return 0
	}
	return ts.Values[i-1]
}

// Table is a labeled grid used to print figure data: one row per series
// point, one column per measured quantity.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddRowValues appends a row, formatting each value compactly.
func (t *Table) AddRowValues(vals ...any) {
	cells := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			cells[i] = FormatFloat(x)
		case string:
			cells[i] = x
		default:
			cells[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(cells...)
}

// FormatFloat renders a float compactly (4 significant-ish digits).
func FormatFloat(x float64) string {
	ax := math.Abs(x)
	switch {
	case x == math.Trunc(x) && ax < 1e7:
		return fmt.Sprintf("%.0f", x)
	case ax >= 100:
		return fmt.Sprintf("%.1f", x)
	case ax >= 1:
		return fmt.Sprintf("%.2f", x)
	default:
		return fmt.Sprintf("%.4f", x)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			for ; pad > 0; pad-- {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
