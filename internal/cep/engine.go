package cep

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"erms/internal/metrics"
	"erms/internal/trace"
)

// Engine routes inserted events to compiled statements. It reads the
// current virtual time from the clock function when pruning time windows.
type Engine struct {
	clock      func() time.Duration
	statements map[string][]*Statement // by event type
	inserted   uint64
	tracer     *trace.Tracer // nil: tracing disabled
}

// SetTracer installs a span tracer: every statement evaluation through
// EachRow records a "cep.eval" span under the ambient span, labelled with
// the statement's SetLabel name. A nil tracer (the default) disables
// tracing with zero overhead.
func (e *Engine) SetTracer(tr *trace.Tracer) { e.tracer = tr }

// RegisterMetrics registers the engine's counters into a metrics
// registry: cep_events_inserted_total tracks the audit→CEP feed volume.
func (e *Engine) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("cep_events_inserted_total", func() float64 { return float64(e.inserted) })
	r.GaugeFunc("cep_statements", func() float64 {
		n := 0
		for _, regs := range e.statements {
			n += len(regs)
		}
		return float64(n)
	})
}

// New creates an engine. clock supplies the current (virtual) time.
func New(clock func() time.Duration) *Engine {
	if clock == nil {
		panic("cep: nil clock")
	}
	return &Engine{clock: clock, statements: make(map[string][]*Statement)}
}

// Query is the one statement shape: count(*) per group of GroupBy keys over
// the events of type From in a sliding time window, optionally keeping only
// the events whose Where field equals Equals. Fields resolve to slots per
// schema; a field a schema lacks reads as null.
type Query struct {
	From   string        // the event type the statement reads
	Window time.Duration // how far back the window reaches; 0 keeps only the current instant
	Where  string        // the filtered field; "" keeps every event
	Equals Val           // the value Where must hold, compared by kind and value
	// GroupBy names the one to maxGroupKeyFields key fields; a row's
	// columns are these keys in order, then count(*).
	GroupBy []string
}

// Compile registers q with the engine. A query with no group by key, more
// than maxGroupKeyFields of them, or a negative window is an error.
func (e *Engine) Compile(q Query) (*Statement, error) {
	switch {
	case len(q.GroupBy) == 0:
		return nil, errors.New("cep: a query needs at least one group by key")
	case len(q.GroupBy) > maxGroupKeyFields:
		return nil, fmt.Errorf("cep: %d group by keys, at most %d are supported", len(q.GroupBy), maxGroupKeyFields)
	case q.Window < 0:
		return nil, fmt.Errorf("cep: negative window %v", q.Window)
	}
	q.GroupBy = slices.Clone(q.GroupBy)
	s := &Statement{engine: e, q: q, groups: make(map[uint64]uint32), free: none, cols: make([]Val, len(q.GroupBy)+1)}
	e.statements[q.From] = append(e.statements[q.From], s)
	return s, nil
}

// Insert dispatches a schema event to every statement reading its type.
// Events failing a statement's where clause are not retained by that
// statement. An event not built by Schema.Event is an error, and so is one
// a statement refuses because its window already retains 2³²−1 records
// (the others still take it). No statement keeps the event, so it does not
// escape and inserting does not allocate.
func (e *Engine) Insert(ev Event) error {
	if ev.schema == nil {
		return errors.New("cep: Insert of an event without a schema (build it with Schema.Event)")
	}
	e.inserted++
	var err error
	for _, s := range e.statements[ev.schema.typ] {
		if serr := s.insert(&ev); err == nil {
			err = serr
		}
	}
	return err
}

// Statement is a registered continuous query plus its retained state: the
// running count of every group with an event in the window (window.go).
type Statement struct {
	engine *Engine
	q      Query
	label  string // trace label, e.g. "files"; set via SetLabel

	schema    *Schema // the schema keySlots and whereSlot index
	keySlots  []int
	whereSlot int

	groups    map[uint64]uint32 // bucket heads by key hash; colliding keys chain through group.next
	grp       []group           // the group slab, by index
	keys      []Val             // the key slab: len(GroupBy) values a group, at its index
	free      uint32            // first emptied group, chained through next, for insert to reuse
	hashClear uint64            // bits cleared from every key hash: zero, except in tests forcing collisions
	expiry    ring[expEntry]
	seq       uint64

	sorted []uint64 // surviving's result, and its sort's other buffer
	spare  []uint64
	cols   []Val
}

// SetLabel names the statement for trace spans ("files", "blocks", ...).
// It returns the statement so compile-and-label chains stay one line.
func (s *Statement) SetLabel(label string) *Statement {
	s.label = label
	return s
}

// EachRow evaluates the statement now and streams one row per surviving
// group to fn as typed columns: the group's keys in GroupBy order, then
// count(*), its records in the window. Groups come in the order they first
// appeared in the current window, so output is deterministic. The cols
// slice is an internal scratch buffer refilled per row — copy values out,
// do not retain the slice.
func (s *Statement) EachRow(fn func(cols []Val)) {
	tr := s.engine.tracer
	if !tr.Enabled() {
		s.each(fn)
		return
	}
	sp := tr.Begin("cep.eval", tr.Current())
	if s.label != "" {
		tr.SetAttr(sp, "stmt", s.label)
	}
	tr.SetAttrInt(sp, "rows", int64(s.each(fn)))
	tr.End(sp)
}
