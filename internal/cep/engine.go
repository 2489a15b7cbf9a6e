package cep

import (
	"errors"
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

	scratch     *Event // reused dispatch copy, so Insert's argument never escapes
	dispatching int
	needCompact bool // a statement closed itself mid-dispatch
}

// SetTracer installs a span tracer: every statement evaluation through
// EachRow records a "cep.eval" span under the ambient span, labelled with
// the statement's SetLabel name. A nil tracer (the default) disables
// tracing with zero overhead.
func (e *Engine) SetTracer(tr *trace.Tracer) { e.tracer = tr }

// RegisterMetrics registers the engine's counters into a metrics
// registry: cep_events_inserted_total tracks the audit→CEP feed volume.
func (e *Engine) RegisterMetrics(r *metrics.Registry) {
	r.GaugeFunc("cep_events_inserted_total", func() float64 { return float64(e.inserted) })
	r.GaugeFunc("cep_statements", func() float64 {
		n := 0
		for _, regs := range e.statements {
			for _, s := range regs {
				if !s.closed {
					n++
				}
			}
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

// Inserted returns the number of events accepted so far.
func (e *Engine) Inserted() uint64 { return e.inserted }

// Compile parses an EPL statement, plans it onto running group state and
// registers it with the engine. A statement the evaluator cannot run — no
// aggregation at all, a group key or aggregate argument that is not a plain
// field, more than three group keys — is an error naming the clause.
func (e *Engine) Compile(epl string) (*Statement, error) {
	q, err := ParseQuery(epl)
	if err != nil {
		return nil, err
	}
	s := &Statement{engine: e, query: q, groups: make(map[groupKey]*group)}
	if err := s.plan(); err != nil {
		return nil, err
	}
	e.statements[q.From] = append(e.statements[q.From], s)
	return s, nil
}

// MustCompile is Compile for statically known statements; it panics on
// errors.
func (e *Engine) MustCompile(epl string) *Statement {
	s, err := e.Compile(epl)
	if err != nil {
		panic(err)
	}
	return s
}

// Insert dispatches a schema event to every statement reading its type and
// returns the first error any of them reports; the others still see the
// event. Events failing a statement's where clause are not retained by that
// statement. An event not built by Schema.Event is an error.
//
// The event is copied into an engine-owned scratch slot before dispatch, so
// the argument never escapes and inserting does not allocate.
func (e *Engine) Insert(ev Event) error {
	if ev.schema == nil {
		return errors.New("cep: Insert of an event without a schema (build it with Schema.Event)")
	}
	e.inserted++
	regs := e.statements[ev.schema.typ]
	if len(regs) == 0 {
		return nil
	}
	p := e.scratch
	if p == nil || e.dispatching > 0 {
		// First use, or a reentrant Insert (e.g. from a clock callback):
		// don't clobber the outer dispatch's event.
		p = new(Event)
		if e.dispatching == 0 {
			e.scratch = p
		}
	}
	*p = ev
	e.dispatching++
	var firstErr error
	for _, s := range regs {
		if s.closed {
			continue
		}
		if err := s.insert(p); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	e.dispatching--
	if e.dispatching == 0 && e.needCompact {
		e.needCompact = false
		e.compact()
	}
	return firstErr
}

// compact removes closed statements deferred by a mid-dispatch Close.
func (e *Engine) compact() {
	for typ, regs := range e.statements {
		out := regs[:0]
		for _, s := range regs {
			if !s.closed {
				out = append(out, s)
			}
		}
		e.statements[typ] = out
	}
}

// Statement is a registered continuous query plus its retained state: the
// plan Compile made of the query and the running aggregates of every group
// with an event in the window (window.go).
type Statement struct {
	engine *Engine
	query  *Query
	closed bool
	label  string // trace label, e.g. "files"; set via SetLabel

	// The plan, fixed at Compile.
	evFields []string // fields captured per event
	groupIdx []int    // group-by keys, as indices into evFields
	recIdx   []int    // per-record retained fields (aggregate inputs), into evFields
	needs    []statNeed
	aggs     []aggPlan
	sel      []Expr // bound select expressions
	having   Expr   // bound having, aliases substituted; nil when absent

	groups map[groupKey]*group
	expiry ring[expEntry]
	seq    uint64
	live   int
	cur    *group // group under evaluation, read by bound expressions

	scratch    []Val
	grpScratch []*group
	cols       []Val
}

// SetLabel names the statement for trace spans ("files", "blocks", ...).
// It returns the statement so compile-and-label chains stay one line.
func (s *Statement) SetLabel(label string) *Statement {
	s.label = label
	return s
}

// Close deregisters the statement: it stops receiving events and releases
// its retained state. Closing twice is a no-op. Close is safe to call while
// the engine is dispatching an event (e.g. from a clock callback): the
// statement stops matching immediately and is unregistered once the
// dispatch finishes.
func (s *Statement) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.reset()
	e := s.engine
	if e.dispatching > 0 {
		e.needCompact = true
		return
	}
	regs := e.statements[s.query.From]
	for i, st := range regs {
		if st == s {
			e.statements[s.query.From] = append(regs[:i], regs[i+1:]...)
			break
		}
	}
}

// Closed reports whether Close was called.
func (s *Statement) Closed() bool { return s.closed }

// Query returns the parsed form of the statement.
func (s *Statement) Query() *Query { return s.query }

// WindowSize returns the number of currently retained events (after pruning
// expired ones).
func (s *Statement) WindowSize() int {
	s.pruneTime()
	return s.live
}

// Rows evaluates the statement now and returns one row per surviving group
// that passes having (a single row for ungrouped aggregates, none when the
// window is empty), keyed by select alias. Group order is the order groups
// first appeared in the current window, so output is deterministic. It is
// EachRow with each row boxed into a map, untraced.
func (s *Statement) Rows() ([]Row, error) {
	var rows []Row
	err := s.each(func(cols []Val) {
		row := make(Row, len(cols))
		for i, it := range s.query.Select {
			row[it.Alias] = cols[i].box()
		}
		rows = append(rows, row)
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// MustRows is Rows but panics on evaluation errors; statements used by the
// Data Judge are validated at compile time, so errors indicate bugs.
func (s *Statement) MustRows() []Row {
	rows, err := s.Rows()
	if err != nil {
		panic(err)
	}
	return rows
}

// EachRow evaluates the statement and streams each output row to fn as
// typed columns in select-list order. Row order, having, and limit behave
// exactly like Rows. The cols slice is an internal scratch buffer refilled
// per row — copy values out, do not retain the slice.
func (s *Statement) EachRow(fn func(cols []Val)) error {
	if tr := s.engine.tracer; tr.Enabled() {
		sp := tr.Begin("cep.eval", tr.Current())
		if s.label != "" {
			tr.SetAttr(sp, "stmt", s.label)
		}
		rows := 0
		inner := fn
		fn = func(cols []Val) { rows++; inner(cols) }
		defer func() {
			tr.SetAttrInt(sp, "rows", int64(rows))
			tr.End(sp)
		}()
	}
	return s.each(fn)
}

// MustEachRow is EachRow but panics on evaluation errors.
func (s *Statement) MustEachRow(fn func(cols []Val)) {
	if err := s.EachRow(fn); err != nil {
		panic(err)
	}
}
