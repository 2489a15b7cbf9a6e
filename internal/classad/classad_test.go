package classad

import (
	"testing"
	"testing/quick"
)

func evalStr(t *testing.T, src string) Value {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e.Eval(Context{My: NewClassAd()})
}

func TestLiteralEval(t *testing.T) {
	cases := map[string]Value{
		"42":            Num(42),
		"3.5":           Num(3.5),
		`"hello"`:       Str("hello"),
		"true":          True,
		"false":         False,
		"undefined":     Undefined,
		"error":         ErrorVal,
		"1 + 2 * 3":     Num(7),
		"(1 + 2) * 3":   Num(9),
		"10 / 4":        Num(2.5),
		"10 % 3":        Num(1),
		"-5 + 2":        Num(-3),
		"!true":         False,
		"2 < 3":         True,
		"2 >= 3":        False,
		`"a" == "A"`:    True, // Condor strings compare case-insensitively
		`"a" < "b"`:     True,
		`"x" + "y"`:     Str("xy"),
		"true && false": False,
		"true || false": True,
	}
	for src, want := range cases {
		if got := evalStr(t, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	cases := map[string]Value{
		"undefined && true":  Undefined,
		"undefined && false": False, // definite false dominates
		"false && undefined": False,
		"undefined || true":  True, // definite true dominates
		"true || undefined":  True,
		"undefined || false": Undefined,
		"undefined == 1":     Undefined,
		"undefined + 1":      Undefined,
		"error && false":     False,
		"error && true":      ErrorVal,
		"1/0":                ErrorVal,
		"1/0 == 1":           ErrorVal,
		"!undefined":         Undefined,
	}
	for src, want := range cases {
		if got := evalStr(t, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestAttributeLookupAndScopes(t *testing.T) {
	machine := NewClassAd().
		Set("Name", "dn07").
		Set("Rack", 2).
		Set("State", "standby").
		Set("FreeGB", 120.0)
	job := NewClassAd().
		Set("WantRack", 2).
		SetExprString("Requirements", `target.Rack == my.WantRack && target.State == "standby"`)

	if !job.Eval(Requirements, machine).IsTrue() {
		t.Fatal("requirements should match")
	}
	machine.Set("State", "active")
	if job.Eval(Requirements, machine).IsTrue() {
		t.Fatal("requirements should fail after state change")
	}
	// Bare attribute resolves MY first, then TARGET.
	probe := MustParseExpr("FreeGB")
	if got := probe.Eval(Context{My: job, Target: machine}); got != Num(120) {
		t.Fatalf("bare lookup fell through wrong: %v", got)
	}
	// Case-insensitivity.
	if got := machine.Eval("rack", nil); got != Num(2) {
		t.Fatalf("case-insensitive lookup: %v", got)
	}
	// Missing -> undefined.
	if got := machine.Eval("nope", nil); got.Kind != KindUndefined {
		t.Fatalf("missing attr: %v", got)
	}
}

func TestAttributeChains(t *testing.T) {
	ad := NewClassAd().
		Set("a", 1).
		SetExprString("b", "a + 1").
		SetExprString("c", "b * 2")
	if got := ad.Eval("c", nil); got != Num(4) {
		t.Fatalf("chained eval = %v", got)
	}
}

func TestCycleDetection(t *testing.T) {
	ad := NewClassAd().
		SetExprString("a", "b").
		SetExprString("b", "a")
	if got := ad.Eval("a", nil); got.Kind != KindError {
		t.Fatalf("cycle should evaluate to error, got %v", got)
	}
}

func TestMatchSymmetric(t *testing.T) {
	machine := NewClassAd().
		Set("Memory", 8192).
		SetExprString("Requirements", "target.ImageSize <= my.Memory")
	job := NewClassAd().
		Set("ImageSize", 4096).
		SetExprString("Requirements", "target.Memory >= 2048")
	if !Match(job, machine) {
		t.Fatal("should match")
	}
	job.Set("ImageSize", 100000)
	if Match(job, machine) {
		t.Fatal("machine requirements violated; should not match")
	}
	// Missing Requirements counts as unconstrained.
	free := NewClassAd()
	if !Match(free, NewClassAd()) {
		t.Fatal("unconstrained ads should match")
	}
}

func TestRank(t *testing.T) {
	job := NewClassAd().SetExprString("Rank", "target.FreeGB")
	m1 := NewClassAd().Set("FreeGB", 10)
	m2 := NewClassAd().Set("FreeGB", 50)
	if RankOf(job, m1) >= RankOf(job, m2) {
		t.Fatal("rank ordering wrong")
	}
	if RankOf(NewClassAd(), m1) != 0 {
		t.Fatal("missing rank should default to 0")
	}
}

func TestParseExprErrors(t *testing.T) {
	for _, src := range append([]string{
		"", "1 +", "(1", "{1,", "member(1,", "a ? 1", "1 @ 2", "my.",
		"{1, 2}", "size(x)", "a ? 1 : 2", "1 =!= 2", "a = 1", "[ a = 1 ]",
	}, removedSyntax...) {
		if _, err := ParseExpr(src); err == nil {
			t.Fatalf("ParseExpr(%q) accepted", src)
		}
	}
}

func TestSetVariants(t *testing.T) {
	ad := NewClassAd().
		Set("i", 7).
		Set("i64", int64(8)).
		Set("f", 2.5).
		Set("b", true).
		Set("s", "x").
		Set("v", Num(1))
	if ad.Eval("i", nil) != Num(7) || ad.Eval("i64", nil) != Num(8) {
		t.Fatal("int set")
	}
	if !ad.Has("I64") || ad.Has("list") {
		t.Fatal("has")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unsupported type should panic")
		}
	}()
	ad.Set("bad", struct{}{})
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"undefined": Undefined,
		"error":     ErrorVal,
		"true":      True,
		"42":        Num(42),
		"2.5":       Num(2.5),
		`"s"`:       Str("s"),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// Property: numeric arithmetic in ClassAds agrees with Go arithmetic.
func TestQuickArithmetic(t *testing.T) {
	f := func(a, b int16) bool {
		ad := NewClassAd().Set("a", float64(a)).Set("b", float64(b))
		sum := MustParseExpr("a + b").Eval(Context{My: ad})
		prod := MustParseExpr("a * b").Eval(Context{My: ad})
		return sum == Num(float64(a)+float64(b)) &&
			prod == Num(float64(a)*float64(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Match is symmetric in its definition — Match(a,b) == Match(b,a).
func TestQuickMatchSymmetry(t *testing.T) {
	f := func(x, y uint8, needX, needY uint8) bool {
		a := NewClassAd().Set("v", int(x)).
			SetExprString("Requirements", "target.v >= "+itoa(int(needX)))
		b := NewClassAd().Set("v", int(y)).
			SetExprString("Requirements", "target.v >= "+itoa(int(needY)))
		return Match(a, b) == Match(b, a) &&
			Match(a, b) == (int(y) >= int(needX) && int(x) >= int(needY))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}
