package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one harness-side interval around a call into a layer.
type span struct {
	name       uint16 // index into tracer.names
	op         int64  // client op or HTTP request the span belongs to
	parent     int32  // index of the causing span, -1 for a root
	start, end int64  // ns since tracer.epoch
}

// tracer keeps spans in memory for one traced run. A nil *tracer records
// nothing, so workload code calls begin/end unconditionally and the
// untraced runs pay one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	names  []string
	nameID map[string]uint16
	spans  []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), nameID: map[string]uint16{}}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id, ok := t.nameID[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.nameID[name] = id
	}
	t.spans = append(t.spans, span{name: id, op: op, parent: parent, start: now, end: now})
	idx := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return idx
}

// end closes span idx.
func (t *tracer) end(idx int32) {
	if t == nil || idx < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[idx].end = now
	t.mu.Unlock()
}

// spanStat aggregates every span of one name.
type spanStat struct {
	name    string
	count   int
	totalNS int64
	selfNS  int64     // total minus the time covered by child spans
	durMS   []float64 // one duration per span, in ms
}

// selfTimes returns, per span, its duration minus the durations of its
// direct children.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// stats groups spans by name, sorted by name.
func (t *tracer) stats() map[string]*spanStat {
	out := map[string]*spanStat{}
	if t == nil {
		return out
	}
	self := t.selfTimes()
	for i, s := range t.spans {
		name := t.names[s.name]
		st := out[name]
		if st == nil {
			st = &spanStat{name: name}
			out[name] = st
		}
		st.count++
		st.totalNS += s.end - s.start
		st.selfNS += self[i]
		st.durMS = append(st.durMS, float64(s.end-s.start)/1e6)
	}
	return out
}

// table renders the span table of a traced run.
func (t *tracer) table() string {
	var b strings.Builder
	st := t.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "  %-28s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(&b, "  span %-23s %10d %12.3f %12.3f\n", n, s.count, float64(s.totalNS)/1e6, float64(s.selfNS)/1e6)
	}
	return b.String()
}

// maxTraceEvents caps the Chrome trace file; the in-memory aggregates
// always cover every span.
const maxTraceEvents = 50000

// writeChromeTrace writes the spans as Chrome trace_event JSON (complete
// "X" events, one tid per op modulo 64 so concurrent requests do not
// overlap on a row).
func (t *tracer) writeChromeTrace(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	self := t.selfTimes()
	n := len(t.spans)
	if n > maxTraceEvents {
		n = maxTraceEvents
	}
	fmt.Fprintf(w, `{"displayTimeUnit":"ms","spansTotal":%d,"traceEvents":[`, len(t.spans))
	for i, s := range t.spans[:n] {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"op":%d,"parent":%d,"self_us":%.3f}}`,
			t.names[s.name], s.op%64+1, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.op, s.parent, float64(self[i])/1e3)
	}
	w.WriteString("\n]}\n")
	return w.Flush()
}
