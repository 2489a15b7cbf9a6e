package cep

import (
	"fmt"
	"strconv"
)

// valKind discriminates the compact Val representation.
type valKind uint8

const (
	kindNull valKind = iota
	kindNum
	kindStr
	kindBool
)

// String names the kind in evaluation errors.
func (k valKind) String() string {
	return [...]string{"null", "number", "string", "bool"}[k]
}

// Val is a compact typed value: a float64, string, bool, or null, without
// the per-value heap boxing of `any`. Event slots, literals, running
// aggregates and EachRow columns are all Vals, so the hot path never
// allocates.
type Val struct {
	k   valKind
	num float64
	str string
}

// NumVal wraps a float64.
func NumVal(f float64) Val { return Val{k: kindNum, num: f} }

// StrVal wraps a string.
func StrVal(s string) Val { return Val{k: kindStr, str: s} }

// BoolVal wraps a bool.
func BoolVal(b bool) Val {
	v := Val{k: kindBool}
	if b {
		v.num = 1
	}
	return v
}

// NullVal is the missing-field value (also the zero Val).
func NullVal() Val { return Val{} }

// IsNull reports whether the value is null (field absent).
func (v Val) IsNull() bool { return v.k == kindNull }

// Num returns the value as a float64 with the engine's usual coercions
// (bool becomes 0/1); non-numeric values yield 0, mirroring Row.Num.
func (v Val) Num() float64 {
	switch v.k {
	case kindNum, kindBool:
		return v.num
	}
	return 0
}

// Str returns the value as a string, rendering non-strings via their
// printed form, mirroring Row.Str ("" for null).
func (v Val) Str() string {
	switch v.k {
	case kindStr:
		return v.str
	case kindNum:
		return strconv.FormatFloat(v.num, 'g', -1, 64)
	case kindBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	}
	return ""
}

// Bool returns the value as a bool (false unless a true bool).
func (v Val) Bool() bool { return v.k == kindBool && v.num != 0 }

// numeric reports the float64 form and whether the value coerces to a
// number (numbers and bools do; strings and null do not).
func (v Val) numeric() (float64, bool) {
	switch v.k {
	case kindNum, kindBool:
		return v.num, true
	}
	return 0, false
}

// box converts to the `any` representation Row maps use.
func (v Val) box() any {
	switch v.k {
	case kindNum:
		return v.num
	case kindStr:
		return v.str
	case kindBool:
		return v.num != 0
	}
	return nil
}

// valLooseEqual is the = operator: numeric coercion first (a number never
// equals a non-number), then string equality, then kind+value identity.
func valLooseEqual(a, b Val) bool {
	if af, ok := a.numeric(); ok {
		if bf, ok2 := b.numeric(); ok2 {
			return af == bf
		}
		return false
	}
	if a.k == kindStr && b.k == kindStr {
		return a.str == b.str
	}
	return a == b
}

// valCompare is the ordering operators: numbers with numbers, strings with
// strings, anything else is an error.
func valCompare(op string, a, b Val) (bool, error) {
	var cmp float64
	if af, ok := a.numeric(); ok {
		bf, ok2 := b.numeric()
		if !ok2 {
			return false, fmt.Errorf("cep: comparing number with %s", b.k)
		}
		cmp = af - bf
	} else if a.k == kindStr {
		if b.k != kindStr {
			return false, fmt.Errorf("cep: comparing string with %s", b.k)
		}
		switch {
		case a.str < b.str:
			cmp = -1
		case a.str > b.str:
			cmp = 1
		}
	} else {
		return false, fmt.Errorf("cep: unorderable type %s", a.k)
	}
	switch op {
	case "<":
		return cmp < 0, nil
	case "<=":
		return cmp <= 0, nil
	case ">":
		return cmp > 0, nil
	case ">=":
		return cmp >= 0, nil
	}
	return false, fmt.Errorf("cep: unknown comparison %q", op)
}
