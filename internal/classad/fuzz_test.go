package classad

import "testing"

// removedSyntax is the part of FuzzParseExpr's seed corpus written in
// ClassAd syntax this package no longer implements (function calls, lists,
// ?:, meta-equality). TestParseExprErrors holds each to a parse error.
var removedSyntax = []string{
	`member("b", {"a", "b"}) ? 1 + 2 : size("xy")`,
	`regexp("^dn[0-9]+$", Name)`,
	`1 =?= "1"`,
}

// FuzzParseExpr: the ClassAd expression parser must never panic, and any
// accepted expression must evaluate (to any Value, including error)
// without panicking, in and out of a matchmaking context.
func FuzzParseExpr(f *testing.F) {
	f.Add(`target.Rack == my.WantRack && target.State == "active"`)
	for _, src := range removedSyntax {
		f.Add(src)
	}
	f.Add(`a % 0`)
	f.Add(``)
	f.Add(`((((`)
	f.Fuzz(func(t *testing.T, src string) {
		e, err := ParseExpr(src)
		if err != nil {
			return
		}
		my := NewClassAd().Set("Name", "dn01").Set("WantRack", 1)
		target := NewClassAd().Set("Rack", 1).Set("State", "active")
		_ = e.Eval(&Context{My: my, Target: target})
		_ = e.Eval(&Context{My: my})
		// The canonical rendering must itself reparse.
		if _, err := ParseExpr(e.String()); err != nil {
			t.Fatalf("canonical form %q does not reparse: %v", e.String(), err)
		}
	})
}
