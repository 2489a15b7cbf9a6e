package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Registry is a named catalog of counters, gauges, and sim-time
// histograms that every subsystem registers into, replacing ad-hoc stats
// struct fields. It renders a Prometheus-style text snapshot for
// `ermsctl metrics` and CI artifacts.
//
// The simulation is single-goroutine, so the registry is unsynchronized;
// names follow Prometheus conventions (snake_case, `_total` suffix on
// counters, unit suffixes like `_seconds`).
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	names    []string // registration order; sorted on export
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter is a monotonically increasing metric.
type Counter struct {
	name string
	v    float64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add accumulates delta (negative deltas panic: counters only go up).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		panic(fmt.Sprintf("metrics: counter %s decremented by %v", c.name, delta))
	}
	c.v += delta
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v }

// Int returns the current count truncated to int (counters in this
// codebase are integral event counts).
func (c *Counter) Int() int { return int(c.v) }

// Gauge is a point-in-time value: either set explicitly or computed by a
// callback at snapshot time (for values owned elsewhere, like a cluster's
// stale-node count).
type Gauge struct {
	name    string
	v       float64
	fn      func() float64
	counter bool // registered by CounterFunc: rendered as a counter
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) { g.v += delta }

// Value returns the gauge reading (invoking the callback for func
// gauges).
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return g.v
}

// Histogram is a Sample registered under a name; its Prometheus rendering
// is a summary with p50/p90/p99 quantiles. Observations are plain
// float64s — for sim-time durations observe seconds.
type Histogram struct {
	name string
	Sample
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) { h.Add(v) }

// ObserveDuration records a virtual-time duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Add(d.Seconds()) }

// Counter returns the counter registered under name, creating it on
// first use. Registering a name already held by another metric kind
// panics.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFresh(name)
	c := &Counter{name: name}
	r.counters[name] = c
	r.names = append(r.names, name)
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFresh(name)
	g := &Gauge{name: name}
	r.gauges[name] = g
	r.names = append(r.names, name)
	return g
}

// GaugeFunc registers a gauge whose value is computed by fn at snapshot
// time. Re-registering a func gauge replaces its callback.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	g := r.Gauge(name)
	g.fn = fn
}

// CounterFunc registers a count owned elsewhere, computed by fn at
// snapshot time, that only ever rises: a func gauge that renders as a
// Prometheus counter. It stays a gauge in the registry, so Gauge(name)
// returns it.
func (r *Registry) CounterFunc(name string, fn func() float64) {
	r.GaugeFunc(name, fn)
	r.gauges[name].counter = true
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkFresh(name)
	h := &Histogram{name: name}
	r.hists[name] = h
	r.names = append(r.names, name)
	return h
}

func (r *Registry) checkFresh(name string) {
	_, c := r.counters[name]
	_, g := r.gauges[name]
	_, h := r.hists[name]
	if c || g || h {
		panic(fmt.Sprintf("metrics: %s already registered as a different kind", name))
	}
	if name == "" || strings.ContainsAny(name, " \t\n{}\"") {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	out := make([]string, len(r.names))
	copy(out, r.names)
	sort.Strings(out)
	return out
}

// WritePrometheus renders the registry as a Prometheus text-format
// snapshot: metrics sorted by name, counters and CounterFunc gauges as
// `# TYPE ... counter`, other gauges as gauges, histograms as summaries
// with quantile labels.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, name := range r.Names() {
		switch {
		case r.counters[name] != nil:
			fmt.Fprintf(bw, "# TYPE %s counter\n%s %s\n", name, name, formatValue(r.counters[name].Value()))
		case r.gauges[name] != nil:
			g, kind := r.gauges[name], "gauge"
			if g.counter {
				kind = "counter"
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n%s %s\n", name, kind, name, formatValue(g.Value()))
		case r.hists[name] != nil:
			h := r.hists[name]
			fmt.Fprintf(bw, "# TYPE %s summary\n", name)
			for _, q := range []float64{0.5, 0.9, 0.99} {
				fmt.Fprintf(bw, "%s{quantile=%q} %s\n", name, trimFloat(q), formatValue(h.Quantile(q)))
			}
			fmt.Fprintf(bw, "%s_sum %s\n", name, formatValue(h.Mean()*float64(h.N())))
			fmt.Fprintf(bw, "%s_count %d\n", name, h.N())
		}
	}
	return bw.Flush()
}

func trimFloat(q float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", q), "0"), ".")
}

// formatValue renders a metric value the way Prometheus does: integers
// without a decimal point, everything else compactly (12 significant
// digits, enough for event counts and quantiles without binary-float
// noise like 2.8000000000000003).
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return strconv.FormatFloat(v, 'g', 12, 64)
}
