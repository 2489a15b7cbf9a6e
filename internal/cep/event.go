// Package cep is the complex event processing engine behind the ERMS Data
// Judge, in the role the paper gives Esper: typed event streams and one
// continuous query shape, a windowed count(*) per group with an optional
// equality filter. The paper writes its queries in Esper's EPL; here a
// query is a Go value, e.g. per-file open counts over a minute:
//
//	Query{From: "Access", Window: time.Minute,
//		Where: "cmd", Equals: StrVal("open"), GroupBy: []string{"path"}}
//
// Statements are compiled once and evaluated against their window on
// demand; the ERMS Data Judge polls them every judging period. The engine
// reads virtual time from a clock function so it runs inside the
// discrete-event simulation, but nothing in the package depends on the
// simulator.
//
// Producers declare a Schema once and emit fixed-slot events through it,
// and a statement keeps a running count per group that is updated on insert
// and unwound on expiry, so evaluating it costs O(groups) whatever the
// window retains.
package cep

import (
	"fmt"
	"strconv"
	"time"
)

// MaxSchemaFields caps the fixed-slot event representation.
const MaxSchemaFields = 8

// Schema declares an event type's field layout once, so producers emit
// events into interned fixed slots. Field order is the slot order used by
// SetNum/SetStr.
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

// Event starts a typed event at the given virtual time. Fill slots with
// SetNum/SetStr and pass the value to Engine.Insert; the whole construction
// is allocation-free.
func (s *Schema) Event(t time.Duration) Event {
	return Event{Time: t, schema: s}
}

// Event is one occurrence in a stream: a timestamp plus the schema's fields
// in fixed slots, built by Schema.Event. An unset slot and a field the
// schema lacks are both null.
type Event struct {
	Time time.Duration

	schema *Schema
	slots  [MaxSchemaFields]Val
}

// SetNum stores a numeric field into slot i of a schema event.
func (e *Event) SetNum(i int, v float64) { e.checkSlot(i); e.slots[i] = NumVal(v) }

// SetStr stores a string field into slot i of a schema event.
func (e *Event) SetStr(i int, v string) { e.checkSlot(i); e.slots[i] = StrVal(v) }

func (e *Event) checkSlot(i int) {
	if e.schema == nil {
		panic("cep: Set on an event without a schema")
	}
	if i < 0 || i >= len(e.schema.names) {
		panic(fmt.Sprintf("cep: slot %d out of range for schema %s", i, e.schema.typ))
	}
}

// field reads slot i; -1, a field the schema lacks, is null.
func (e *Event) field(i int) Val {
	if i < 0 {
		return Val{}
	}
	return e.slots[i]
}

// valKind discriminates the compact Val representation.
type valKind uint8

const (
	kindNull valKind = iota
	kindNum
	kindStr
)

// Val is a compact typed value: a float64, a string, or null, without the
// per-value heap boxing of `any`. Event slots, where values, group keys
// and EachRow columns are all Vals, so the hot path never allocates. Only
// the payload of the value's kind is set, so == is equality of kind and
// value.
type Val struct {
	k   valKind
	num float64
	str string
}

// NumVal wraps a float64.
func NumVal(f float64) Val { return Val{k: kindNum, num: f} }

// StrVal wraps a string.
func StrVal(s string) Val { return Val{k: kindStr, str: s} }

// IsNull reports whether the value is null (field absent).
func (v Val) IsNull() bool { return v.k == kindNull }

// Num returns a number's value; a string or null yields 0.
func (v Val) Num() float64 { return v.num }

// Str returns a string's value, renders a number in its shortest form, and
// yields "" for null.
func (v Val) Str() string {
	if v.k == kindNum {
		return strconv.FormatFloat(v.num, 'g', -1, 64)
	}
	return v.str
}
