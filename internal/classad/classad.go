package classad

import (
	"fmt"
	"strings"
)

// ClassAd is an attribute set. Attribute names are case-insensitive, as in
// Condor.
type ClassAd struct {
	attrs map[string]Expr // keyed by lowercase name
}

// NewClassAd returns an empty ad.
func NewClassAd() *ClassAd {
	return &ClassAd{attrs: make(map[string]Expr)}
}

// Set assigns a literal value; v may be a string, bool, int, int64,
// float64 or Value.
func (ad *ClassAd) Set(name string, v any) *ClassAd {
	var val Value
	switch x := v.(type) {
	case Value:
		val = x
	case string:
		val = Str(x)
	case bool:
		val = Boolean(x)
	case int:
		val = Num(float64(x))
	case int64:
		val = Num(float64(x))
	case float64:
		val = Num(x)
	default:
		panic(fmt.Sprintf("classad: unsupported literal type %T", v))
	}
	return ad.SetExpr(name, litNode{v: val})
}

// SetExpr assigns an expression attribute.
func (ad *ClassAd) SetExpr(name string, e Expr) *ClassAd {
	ad.attrs[fold(name)] = e
	return ad
}

// SetExprString parses src and assigns it; it panics on syntax errors (use
// for statically known expressions) .
func (ad *ClassAd) SetExprString(name, src string) *ClassAd {
	return ad.SetExpr(name, MustParseExpr(src))
}

// Has reports whether the attribute exists.
func (ad *ClassAd) Has(name string) bool {
	_, ok := ad.attrs[fold(name)]
	return ok
}

// Eval evaluates the named attribute with this ad as MY and target as
// TARGET (target may be nil).
func (ad *ClassAd) Eval(name string, target *ClassAd) Value {
	e, ok := ad.attrs[fold(name)]
	if !ok {
		return Undefined
	}
	return e.Eval(Context{My: ad, Target: target})
}

// fold is an attribute name's map key. The two names matchmaking looks up
// against every machine are folded once, not on every lookup.
func fold(name string) string {
	switch name {
	case Requirements:
		return "requirements"
	case Rank:
		return "rank"
	}
	return strings.ToLower(name)
}

// Requirements is the conventional attribute name for match constraints.
const Requirements = "Requirements"

// Rank is the conventional attribute name for match preference.
const Rank = "Rank"

// Match reports whether both ads' Requirements evaluate to true against
// each other (symmetric matchmaking, as the Condor negotiator does). A
// missing Requirements attribute counts as unconstrained (true).
func Match(a, b *ClassAd) bool {
	return matchOneWay(a, b) && matchOneWay(b, a)
}

func matchOneWay(my, target *ClassAd) bool {
	if !my.Has(Requirements) {
		return true
	}
	return my.Eval(Requirements, target).IsTrue()
}

// RankOf evaluates my's Rank against target, defaulting to 0 when absent or
// non-numeric. Higher is better.
func RankOf(my, target *ClassAd) float64 {
	v := my.Eval(Rank, target)
	if f, ok := v.Number(); ok {
		return f
	}
	return 0
}
