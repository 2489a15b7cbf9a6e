// Package trace records the ERMS control loop as a tree of spans on the
// simulation clock: a hot file's first access burst, the judge verdict
// that classified it, the Condor job negotiation, and every per-replica
// HDFS transfer are one linked tree, exportable as Chrome trace_event
// JSON (chrome://tracing, Perfetto) for inspection.
//
// Tracing is opt-in and costs nothing when off: every method is safe on a
// nil *Tracer and returns immediately without allocating, so instrumented
// hot paths (the judge pass, CEP evaluation) keep their allocs/op at
// zero-overhead when no tracer is installed.
//
// Because the simulation clock is virtual and every span is created from
// deterministic event code, two runs with the same seed produce
// byte-identical exports — the trace itself is a regression artifact.
//
// Span naming convention: "component.operation" — the category (Chrome
// track) is the part before the first dot. Current components: hdfs,
// judge, cep, condor, net, erms.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// SpanID identifies a span within one Tracer. Zero means "no span" and is
// a valid parent (a root span).
type SpanID int32

// Attr is one key/value annotation on a span. Values are stored as
// strings; use the typed Set*Attr helpers so formatting only happens when
// tracing is enabled.
type Attr struct {
	Key string
	Val string
}

// Span is one recorded operation. Start and End are virtual times; an
// instant span has End == Start. A span still open at export time is
// closed at the exporting clock's now.
type Span struct {
	ID      SpanID
	Parent  SpanID
	Name    string
	Start   time.Duration
	End     time.Duration
	Instant bool
	Attrs   []Attr
	open    bool
}

// Tracer records spans against a virtual clock. The zero value is not
// usable; construct with New. A nil *Tracer is the disabled tracer: every
// method is a no-op returning zero values.
//
// The tracer also keeps an ambient "current span" stack so instrumented
// code deep in a synchronous call chain can parent its spans correctly
// without every API threading a SpanID parameter. Asynchronous
// continuations (scheduled events, flow completions) must capture the
// SpanID explicitly and re-establish it with Push/Pop.
type Tracer struct {
	clock   func() time.Duration
	spans   []Span
	current SpanID
}

// New creates an enabled tracer reading timestamps from clock (typically
// the simulation engine's Now).
func New(clock func() time.Duration) *Tracer {
	if clock == nil {
		panic("trace: nil clock")
	}
	return &Tracer{clock: clock}
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Begin opens a span named name under parent (0 for a root span, or
// t.Current() via the Ambient helper) and returns its ID.
func (t *Tracer) Begin(name string, parent SpanID) SpanID {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, Span{
		ID:     SpanID(len(t.spans) + 1),
		Parent: parent,
		Name:   name,
		Start:  t.clock(),
		open:   true,
	})
	return SpanID(len(t.spans))
}

// End closes the span. Ending an unknown, instant, or already-ended span
// is a no-op.
func (t *Tracer) End(id SpanID) {
	if t == nil || id <= 0 || int(id) > len(t.spans) {
		return
	}
	sp := &t.spans[id-1]
	if !sp.open {
		return
	}
	sp.open = false
	sp.End = t.clock()
}

// Instant records a zero-duration event under parent and returns its ID
// (so attributes can still be attached).
func (t *Tracer) Instant(name string, parent SpanID) SpanID {
	if t == nil {
		return 0
	}
	now := t.clock()
	t.spans = append(t.spans, Span{
		ID:      SpanID(len(t.spans) + 1),
		Parent:  parent,
		Name:    name,
		Start:   now,
		End:     now,
		Instant: true,
	})
	return SpanID(len(t.spans))
}

// SetAttr attaches a string attribute to a span.
func (t *Tracer) SetAttr(id SpanID, key, val string) {
	if t == nil || id <= 0 || int(id) > len(t.spans) {
		return
	}
	sp := &t.spans[id-1]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Val: val})
}

// SetAttrInt attaches an integer attribute; the value is only formatted
// when the tracer is enabled.
func (t *Tracer) SetAttrInt(id SpanID, key string, val int64) {
	if t == nil {
		return
	}
	t.SetAttr(id, key, strconv.FormatInt(val, 10))
}

// Current returns the ambient span (0 when none, or tracing disabled).
func (t *Tracer) Current() SpanID {
	if t == nil {
		return 0
	}
	return t.current
}

// Push makes id the ambient span and returns the previous one, which the
// caller must restore with Pop when the synchronous section ends:
//
//	prev := tr.Push(span)
//	defer tr.Pop(prev)
func (t *Tracer) Push(id SpanID) SpanID {
	if t == nil {
		return 0
	}
	prev := t.current
	t.current = id
	return prev
}

// Pop restores the ambient span returned by the matching Push.
func (t *Tracer) Pop(prev SpanID) {
	if t == nil {
		return
	}
	t.current = prev
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Spans returns the recorded spans in creation order. Open spans are
// reported with End == their Start; the slice is a snapshot copy.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	for i := range out {
		if out[i].open {
			out[i].End = out[i].Start
		}
	}
	return out
}

// Span returns a snapshot of one span and whether it exists.
func (t *Tracer) Span(id SpanID) (Span, bool) {
	if t == nil || id <= 0 || int(id) > len(t.spans) {
		return Span{}, false
	}
	sp := t.spans[id-1]
	if sp.open {
		sp.End = sp.Start
	}
	return sp, true
}

// Attr returns the value of the named attribute on a span ("" when
// absent).
func (s Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// Category returns the component track a span belongs to: the part of its
// name before the first dot ("hdfs.replica_add" → "hdfs").
func (s Span) Category() string {
	for i := 0; i < len(s.Name); i++ {
		if s.Name[i] == '.' {
			return s.Name[:i]
		}
	}
	return s.Name
}

// WriteChromeTrace exports the spans as Chrome trace_event JSON (the
// "JSON array" format): load the file in chrome://tracing or
// https://ui.perfetto.dev. Each component (span name prefix) becomes one
// named thread; span/parent IDs ride in args so the tree is recoverable.
// Output is deterministic: spans in creation order, threads in first-seen
// order, attributes in insertion order.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	bw := bufio.NewWriter(w)
	// Assign a tid per category, in first-seen order.
	tids := map[string]int{}
	var cats []string
	for i := range t.spans {
		cat := t.spans[i].Category()
		if _, ok := tids[cat]; !ok {
			tids[cat] = len(cats) + 1
			cats = append(cats, cat)
		}
	}
	bw.WriteString("[\n")
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(s)
	}
	emit(`{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"erms"}}`)
	for _, cat := range cats {
		emit(fmt.Sprintf(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			tids[cat], quote(cat)))
	}
	for i := range t.spans {
		sp := t.spans[i]
		if sp.open {
			sp.End = t.clock()
		}
		var b []byte
		if sp.Instant {
			b = fmt.Appendf(nil, `{"ph":"i","s":"t","pid":1,"tid":%d,"ts":%s,"name":%s,"cat":%s`,
				tids[sp.Category()], micros(sp.Start), quote(sp.Name), quote(sp.Category()))
		} else {
			b = fmt.Appendf(nil, `{"ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"name":%s,"cat":%s`,
				tids[sp.Category()], micros(sp.Start), micros(sp.End-sp.Start),
				quote(sp.Name), quote(sp.Category()))
		}
		b = fmt.Appendf(b, `,"args":{"id":%d,"parent":%d`, sp.ID, sp.Parent)
		for _, a := range sp.Attrs {
			b = fmt.Appendf(b, `,%s:%s`, quote(a.Key), quote(a.Val))
		}
		b = append(b, "}}"...)
		emit(string(b))
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

// micros renders a duration as microseconds with nanosecond precision
// (Chrome trace ts/dur unit), with no exponent so output is stable.
func micros(d time.Duration) string {
	ns := d.Nanoseconds()
	if ns%1000 == 0 {
		return strconv.FormatInt(ns/1000, 10)
	}
	return strconv.FormatInt(ns/1000, 10) + "." + fmt.Sprintf("%03d", ns%1000)
}

// quote renders a JSON string literal (keys and values are plain ASCII
// identifiers and paths in practice; control characters are escaped).
func quote(s string) string { return strconv.Quote(s) }

// Summary is an aggregate view of a trace: span counts and total time per
// span name, sorted by name. Used by the figures trace demo and tests.
type Summary struct {
	Name  string
	Count int
	Total time.Duration
}

// Summarize aggregates the recorded spans by name.
func (t *Tracer) Summarize() []Summary {
	if t == nil {
		return nil
	}
	byName := map[string]*Summary{}
	var names []string
	for _, sp := range t.Spans() {
		s := byName[sp.Name]
		if s == nil {
			s = &Summary{Name: sp.Name}
			byName[sp.Name] = s
			names = append(names, sp.Name)
		}
		s.Count++
		s.Total += sp.End - sp.Start
	}
	sort.Strings(names)
	out := make([]Summary, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}
