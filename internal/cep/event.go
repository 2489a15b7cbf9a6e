// Package cep is a complex event processing engine in the style the ERMS
// paper uses (Esper): typed event streams, sliding time and length windows,
// group-by aggregation, and an SQL-like continuous query language, e.g.
//
//	select path, count(*) as cnt
//	from Access.win:time(60s)
//	where cmd = 'open'
//	group by path
//	having cnt > 10
//
// Statements are compiled once and evaluated against their window on
// demand; the ERMS Data Judge polls them every judging period. The engine
// reads virtual time from a clock function so it runs inside the
// discrete-event simulation, but nothing in the package depends on the
// simulator.
//
// There is one of each thing. Producers declare a Schema once and emit
// fixed-slot events through it; expressions evaluate to typed Vals; and a
// statement keeps running per-group aggregates that are updated on insert
// and unwound on expiry, so evaluating it costs O(groups) whatever the
// window retains. What that evaluator cannot run — a select with no
// aggregation, a group key or aggregate argument that is not a plain
// field — Compile rejects, naming the clause.
package cep

import (
	"fmt"
	"time"
)

// MaxSchemaFields caps the fixed-slot event representation.
const MaxSchemaFields = 8

// Schema declares an event type's field layout once, so producers emit
// events into interned fixed slots. Field order is the slot order used by
// SetNum/SetStr/SetBool.
type Schema struct {
	typ   string
	names []string
	idx   map[string]int
}

// NewSchema interns a field layout for an event type. It panics on more
// than MaxSchemaFields fields or duplicate names — schemas are static
// declarations, so these are programming errors.
func NewSchema(eventType string, fields ...string) *Schema {
	if len(fields) > MaxSchemaFields {
		panic(fmt.Sprintf("cep: schema %s has %d fields, max %d", eventType, len(fields), MaxSchemaFields))
	}
	s := &Schema{typ: eventType, names: fields, idx: make(map[string]int, len(fields))}
	for i, f := range fields {
		if _, dup := s.idx[f]; dup {
			panic(fmt.Sprintf("cep: schema %s duplicates field %q", eventType, f))
		}
		s.idx[f] = i
	}
	return s
}

// Type returns the event type the schema describes.
func (s *Schema) Type() string { return s.typ }

// Index returns the slot index of a field, or -1 if the schema lacks it.
func (s *Schema) Index(name string) int {
	if i, ok := s.idx[name]; ok {
		return i
	}
	return -1
}

// Event starts a typed event at the given virtual time. Fill slots with
// SetNum/SetStr/SetBool and pass the value to Engine.Insert; the whole
// construction is allocation-free.
func (s *Schema) Event(t time.Duration) Event {
	return Event{Time: t, schema: s}
}

// Event is one occurrence in a stream: a timestamp plus the schema's fields
// in fixed slots, built by Schema.Event. An unset slot and a field the
// schema lacks are both null. The engine injects the builtin field "__time"
// (seconds since simulation start) so queries can aggregate over
// timestamps, e.g. max(__time) for the last access time.
type Event struct {
	Time time.Duration

	schema *Schema
	slots  [MaxSchemaFields]Val
}

// SetNum stores a numeric field into slot i of a schema event.
func (e *Event) SetNum(i int, v float64) { e.checkSlot(i); e.slots[i] = NumVal(v) }

// SetStr stores a string field into slot i of a schema event.
func (e *Event) SetStr(i int, v string) { e.checkSlot(i); e.slots[i] = StrVal(v) }

// SetBool stores a boolean field into slot i of a schema event.
func (e *Event) SetBool(i int, v bool) { e.checkSlot(i); e.slots[i] = BoolVal(v) }

func (e *Event) checkSlot(i int) {
	if e.schema == nil {
		panic("cep: Set on an event without a schema")
	}
	if i < 0 || i >= len(e.schema.names) {
		panic(fmt.Sprintf("cep: slot %d out of range for schema %s", i, e.schema.typ))
	}
}

// fieldVal fetches the named field; a field the schema lacks is null.
func (e *Event) fieldVal(name string) Val {
	if name == "__time" {
		return NumVal(e.Time.Seconds())
	}
	if i, ok := e.schema.idx[name]; ok {
		return e.slots[i]
	}
	return Val{}
}

// Row is one output row of a statement evaluation, keyed by the select
// list's aliases (or expression text when no alias is given).
type Row map[string]any

// Num extracts a numeric column from a row; it returns 0 for missing or
// non-numeric values, which keeps judge code terse.
func (r Row) Num(col string) float64 {
	v, ok := r[col]
	if !ok {
		return 0
	}
	f, ok := toFloat(v)
	if !ok {
		return 0
	}
	return f
}

// Str extracts a string column from a row ("" when missing).
func (r Row) Str(col string) string {
	v, ok := r[col]
	if !ok {
		return ""
	}
	s, ok := v.(string)
	if !ok {
		return fmt.Sprint(v)
	}
	return s
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}
