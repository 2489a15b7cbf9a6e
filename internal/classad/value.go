// Package classad implements the part of the Condor ClassAd language that
// ERMS's matchmaking uses: attribute sets whose values are lazily evaluated
// expressions over booleans, numbers and strings, with the three-valued
// (undefined/error-propagating) semantics Condor matchmaking relies on.
// Lists, ?:, function calls, meta-equality (=?=) and the bracketed whole-ad
// text form are not implemented; ParseExpr rejects them.
//
// ERMS uses ClassAds the way the paper describes: machine ads advertise
// datanode characteristics (rack, active/standby state, free capacity,
// liveness), job ads carry Requirements and Rank expressions, and the
// negotiator matches jobs to machines by symmetric Requirements evaluation.
package classad

import (
	"fmt"
	"strconv"
)

// Kind discriminates Value.
type Kind int

// Value kinds. Undefined and Error are first-class: comparisons against
// Undefined yield Undefined, and matchmaking treats non-true Requirements
// as no-match, exactly like Condor.
const (
	KindUndefined Kind = iota
	KindError
	KindBool
	KindNumber
	KindString
)

// Value is an evaluated ClassAd expression result.
type Value struct {
	Kind Kind
	Bool bool
	Num  float64
	Str  string
}

// Convenience constructors.
var (
	Undefined = Value{Kind: KindUndefined}
	ErrorVal  = Value{Kind: KindError}
	True      = Value{Kind: KindBool, Bool: true}
	False     = Value{Kind: KindBool, Bool: false}
)

// Num returns a numeric value.
func Num(f float64) Value { return Value{Kind: KindNumber, Num: f} }

// Str returns a string value.
func Str(s string) Value { return Value{Kind: KindString, Str: s} }

// Boolean returns a bool value.
func Boolean(b bool) Value {
	if b {
		return True
	}
	return False
}

// IsTrue reports whether the value is the boolean true (the only value that
// satisfies a Requirements clause).
func (v Value) IsTrue() bool { return v.Kind == KindBool && v.Bool }

// Number returns the numeric content and whether the value is numeric
// (bools coerce to 0/1 as in Condor).
func (v Value) Number() (float64, bool) {
	switch v.Kind {
	case KindNumber:
		return v.Num, true
	case KindBool:
		if v.Bool {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// String renders the value in ClassAd syntax.
func (v Value) String() string {
	switch v.Kind {
	case KindUndefined:
		return "undefined"
	case KindError:
		return "error"
	case KindBool:
		if v.Bool {
			return "true"
		}
		return "false"
	case KindNumber:
		if v.Num == float64(int64(v.Num)) {
			return strconv.FormatInt(int64(v.Num), 10)
		}
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.Str)
	}
	return fmt.Sprintf("unknown(%d)", v.Kind)
}
