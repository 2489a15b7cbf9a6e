package cep

import (
	"fmt"
	"sort"
	"time"
)

// This file is a statement's retained state: per-group running aggregates
// maintained on insert and unwound on window expiry, so evaluation costs
// O(groups) instead of rescanning the retained events. Records expire
// front-first in insertion order through a statement-level FIFO.

// maxGroupKeyFields caps the typed composite group key.
const maxGroupKeyFields = 3

// groupKey is a comparable composite key over at most maxGroupKeyFields
// typed values — no fmt round-trip, no per-insert allocation. Keys are
// typed: the string '1' and the number 1 are different groups.
type groupKey struct {
	n uint8
	v [maxGroupKeyFields]Val
}

// ring is a growable circular buffer (FIFO).
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

// expEntry is one retained record in the statement-level expiry FIFO: the
// group it belongs to plus its event time.
type expEntry struct {
	t time.Duration
	g *group
}

type dqEnt struct {
	seq uint64
	v   float64
}

// mdq is a monotonic deque for sliding-window min/max: amortized O(1) per
// insert and expiry. Entries are expired by record sequence number.
type mdq struct {
	buf  []dqEnt
	head int
}

func (d *mdq) len() int     { return len(d.buf) - d.head }
func (d *mdq) front() dqEnt { return d.buf[d.head] }
func (d *mdq) popFront() {
	d.head++
	if d.head > 64 && d.head > len(d.buf)/2 {
		d.buf = append(d.buf[:0], d.buf[d.head:]...)
		d.head = 0
	}
}

// pushMin maintains an increasing deque: front is the window minimum.
func (d *mdq) pushMin(seq uint64, v float64) {
	for len(d.buf) > d.head && d.buf[len(d.buf)-1].v >= v {
		d.buf = d.buf[:len(d.buf)-1]
	}
	d.buf = append(d.buf, dqEnt{seq, v})
}

// pushMax maintains a decreasing deque: front is the window maximum.
func (d *mdq) pushMax(seq uint64, v float64) {
	for len(d.buf) > d.head && d.buf[len(d.buf)-1].v <= v {
		d.buf = d.buf[:len(d.buf)-1]
	}
	d.buf = append(d.buf, dqEnt{seq, v})
}

// expire drops deque entries belonging to records at or before seq.
func (d *mdq) expire(seq uint64) {
	for d.len() > 0 && d.front().seq <= seq {
		d.popFront()
	}
}

// fieldStats is the per-group running state for one aggregated field. n
// counts live non-null numeric values (null is skipped by every aggregate);
// bad counts live non-null non-numeric ones, whose presence makes the
// numeric aggregates an evaluation error.
type fieldStats struct {
	n, bad int
	sum    float64 // add on insert, subtract on expiry: may drift a few ulps from a rescan
	runMin float64 // keepall windows only (no expiry)
	runMax float64
	first  Val // keepall windows only
	dqMin  mdq // expiring windows only
	dqMax  mdq
}

// group is the running state of one surviving group.
type group struct {
	key      groupKey
	firstSeq uint64 // keepall: creation seq; windowed: seqs front
	live     int
	repVals  []Val // latest event's captured fields: what a bare field reference reads
	seqs     ring[uint64]
	recs     ring[Val] // flattened: one Val per recIdx field per record
	stats    []fieldStats
}

func (s *Statement) windowed() bool { return s.query.Window.Kind != WindowKeepAll }

// insert applies the where clause to one event and folds it into its group.
func (s *Statement) insert(ev *Event) error {
	if s.query.Where != nil {
		keep, err := evalBool("where", s.query.Where, ev)
		if err != nil || !keep {
			return err
		}
	}
	s.pruneTime()
	for i, f := range s.evFields {
		s.scratch[i] = ev.fieldVal(f)
	}
	var key groupKey
	key.n = uint8(len(s.groupIdx))
	for i, gi := range s.groupIdx {
		key.v[i] = s.scratch[gi]
	}
	g := s.groups[key]
	created := g == nil
	if created {
		g = &group{
			key:      key,
			firstSeq: s.seq,
			repVals:  make([]Val, len(s.evFields)),
			stats:    make([]fieldStats, len(s.recIdx)),
		}
		s.groups[key] = g
	}
	seq := s.seq
	s.seq++
	copy(g.repVals, s.scratch)
	g.live++
	s.live++
	windowed := s.windowed()
	if windowed {
		g.seqs.push(seq)
		for _, fi := range s.recIdx {
			g.recs.push(s.scratch[fi])
		}
		s.expiry.push(expEntry{t: ev.Time, g: g})
	}
	for j, fi := range s.recIdx {
		v := s.scratch[fi]
		fs := &g.stats[j]
		if created {
			fs.first = v // first record's value, null included
		}
		f, numeric := v.numeric()
		if !numeric {
			if !v.IsNull() {
				fs.bad++
			}
			continue
		}
		fs.n++
		fs.sum += f
		if windowed {
			if s.needs[j].min {
				fs.dqMin.pushMin(seq, f)
			}
			if s.needs[j].max {
				fs.dqMax.pushMax(seq, f)
			}
		} else if fs.n == 1 {
			fs.runMin, fs.runMax = f, f
		} else {
			fs.runMin = min(fs.runMin, f)
			fs.runMax = max(fs.runMax, f)
		}
	}
	if w := s.query.Window; w.Kind == WindowLength && s.live > w.N {
		s.expireFront(s.expiry.pop().g)
	}
	return nil
}

// pruneTime expires records older than the time window. The window is
// inclusive at its trailing edge: an event aged exactly Dur is still
// visible, so a periodic evaluator with period == window never loses the
// events of the instant it last ran.
func (s *Statement) pruneTime() {
	w := s.query.Window
	if w.Kind != WindowTime {
		return
	}
	cutoff := s.engine.clock() - w.Dur
	for s.expiry.len() > 0 && s.expiry.at(0).t < cutoff {
		s.expireFront(s.expiry.pop().g)
	}
}

// expireFront removes the group's oldest record from its running state.
func (s *Statement) expireFront(g *group) {
	seq := g.seqs.pop()
	for j := range s.recIdx {
		v := g.recs.pop()
		fs := &g.stats[j]
		fs.dqMin.expire(seq)
		fs.dqMax.expire(seq)
		f, numeric := v.numeric()
		if !numeric {
			if !v.IsNull() {
				fs.bad--
			}
			continue
		}
		fs.n--
		fs.sum -= f
	}
	g.live--
	s.live--
	if g.live == 0 {
		delete(s.groups, g.key)
	}
}

// aggValue resolves one planned aggregate against a group's running state.
func (s *Statement) aggValue(g *group, idx int) (Val, error) {
	ap := s.aggs[idx]
	if ap.star {
		return NumVal(float64(g.live)), nil
	}
	switch ap.fn {
	case "last":
		return g.repVals[ap.fldIdx], nil
	case "first":
		if s.windowed() {
			// The oldest record's fields occupy the ring's first stride.
			return g.recs.at(ap.statIdx), nil
		}
		return g.stats[ap.statIdx].first, nil
	}
	fs := &g.stats[ap.statIdx]
	if fs.bad > 0 {
		return Val{}, fmt.Errorf("cep: %s over non-numeric field", ap.fn)
	}
	switch ap.fn {
	case "count":
		return NumVal(float64(fs.n)), nil
	case "sum":
		return NumVal(fs.sum), nil
	}
	if fs.n == 0 {
		return Val{}, nil // avg/min/max of no values is null
	}
	switch ap.fn {
	case "avg":
		return NumVal(fs.sum / float64(fs.n)), nil
	case "min":
		if s.windowed() {
			return NumVal(fs.dqMin.front().v), nil
		}
		return NumVal(fs.runMin), nil
	case "max":
		if s.windowed() {
			return NumVal(fs.dqMax.front().v), nil
		}
		return NumVal(fs.runMax), nil
	}
	return Val{}, fmt.Errorf("cep: unknown aggregate %q", ap.fn)
}

// surviving collects live groups ordered by the sequence of their oldest
// surviving record: the order groups first appear in the current window.
func (s *Statement) surviving() []*group {
	s.grpScratch = s.grpScratch[:0]
	for _, g := range s.groups {
		if s.windowed() {
			g.firstSeq = g.seqs.at(0)
		}
		s.grpScratch = append(s.grpScratch, g)
	}
	sort.Slice(s.grpScratch, func(a, b int) bool {
		return s.grpScratch[a].firstSeq < s.grpScratch[b].firstSeq
	})
	return s.grpScratch
}

// each prunes the window and streams one row of typed columns per surviving
// group that passes having, up to limit. cols is reused between rows.
func (s *Statement) each(fn func(cols []Val)) error {
	s.pruneTime()
	emitted := 0
	for _, g := range s.surviving() {
		s.cur = g
		if s.having != nil {
			pass, err := evalBool("having", s.having, nil)
			if err != nil {
				return err
			}
			if !pass {
				continue
			}
		}
		for i, e := range s.sel {
			v, err := e.eval(nil)
			if err != nil {
				return err
			}
			s.cols[i] = v
		}
		fn(s.cols)
		emitted++
		if emitted == s.query.Limit {
			break
		}
	}
	return nil
}

// evalBool evaluates a where or having clause, which must be boolean.
func evalBool(clause string, e Expr, ev *Event) (bool, error) {
	v, err := e.eval(ev)
	if err != nil {
		return false, fmt.Errorf("cep: %s clause: %w", clause, err)
	}
	if v.k != kindBool {
		return false, fmt.Errorf("cep: %s clause is not boolean", clause)
	}
	return v.Bool(), nil
}

// reset releases all retained state (statement closed).
func (s *Statement) reset() {
	s.groups = make(map[groupKey]*group)
	s.expiry = ring[expEntry]{}
	s.live = 0
	s.cur = nil
	s.grpScratch = nil
}
