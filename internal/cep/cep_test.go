package cep

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

type testClock struct{ now time.Duration }

func (c *testClock) clock() time.Duration { return c.now }

// Test schemas. Slots a test does not set stay null, which is also what a
// field the schema lacks reads as.
var (
	accessSchema = NewSchema("Access", "path", "cmd", "datanode", "bytes", "replicas", "zero", "flag")
	sSchema      = NewSchema("S", "k", "path", "x")
)

// accessSchema slots.
const (
	aPath = iota
	aCmd
	aDatanode
	aBytes
	aReplicas
	aZero
	aFlag
)

func access(t time.Duration, path string, dn string) Event {
	ev := accessSchema.Event(t)
	ev.SetStr(aPath, path)
	ev.SetStr(aCmd, "open")
	ev.SetStr(aDatanode, dn)
	ev.SetNum(aBytes, 64)
	return ev
}

// sEvent is an S event with only the given string slot set.
func sEvent(t time.Duration, slot int, v string) Event {
	ev := sSchema.Event(t)
	ev.SetStr(slot, v)
	return ev
}

func TestWhereFilters(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select path, count(*) as n from Access where cmd = 'open' and path != '/skip' group by path")
	e.Insert(access(time.Second, "/keep", "dn1"))
	e.Insert(access(time.Second, "/skip", "dn1"))
	ev := access(time.Second, "/write", "dn1")
	ev.SetStr(aCmd, "create")
	e.Insert(ev)
	rows := st.MustRows()
	if len(rows) != 1 || rows[0].Str("path") != "/keep" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestGroupByCountHaving(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile(
		"select path, count(*) as cnt from Access group by path having cnt >= 2")
	for i := 0; i < 3; i++ {
		e.Insert(access(time.Duration(i)*time.Second, "/hot", "dn1"))
	}
	e.Insert(access(time.Second, "/cold", "dn2"))
	rows := st.MustRows()
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0].Str("path") != "/hot" || rows[0].Num("cnt") != 3 {
		t.Fatalf("row = %v", rows[0])
	}
}

func TestTimeWindowExpiry(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select count(*) as cnt from Access.win:time(10s)")
	e.Insert(access(1*time.Second, "/a", "dn1"))
	e.Insert(access(5*time.Second, "/a", "dn1"))
	c.now = 8 * time.Second
	if got := st.MustRows()[0].Num("cnt"); got != 2 {
		t.Fatalf("cnt at 8s = %v, want 2", got)
	}
	c.now = 12 * time.Second // event at 1s has aged out (1 <= 12-10? 1 <= 2 yes)
	if got := st.MustRows()[0].Num("cnt"); got != 1 {
		t.Fatalf("cnt at 12s = %v, want 1", got)
	}
	c.now = 30 * time.Second
	rows := st.MustRows()
	if rows != nil {
		t.Fatalf("expected no rows for empty ungrouped aggregate, got %v", rows)
	}
	if st.WindowSize() != 0 {
		t.Fatalf("window size = %d, want 0", st.WindowSize())
	}
}

func TestLengthWindow(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select count(*) as cnt from Access.win:length(3)")
	for i := 0; i < 5; i++ {
		e.Insert(access(time.Duration(i)*time.Second, "/a", "dn1"))
	}
	if got := st.MustRows()[0].Num("cnt"); got != 3 {
		t.Fatalf("cnt = %v, want 3 (length window)", got)
	}
}

func TestAggregates(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile(
		"select sum(bytes) as s, avg(bytes) as a, min(bytes) as lo, max(bytes) as hi, " +
			"count(bytes) as n, first(path) as f, last(path) as l from Access")
	for i, p := range []string{"/x", "/y", "/z"} {
		ev := access(time.Duration(i)*time.Second, p, "dn1")
		ev.SetNum(aBytes, float64((i+1)*10))
		e.Insert(ev)
	}
	row := st.MustRows()[0]
	if row.Num("s") != 60 || row.Num("a") != 20 || row.Num("lo") != 10 || row.Num("hi") != 30 {
		t.Fatalf("row = %v", row)
	}
	if row.Num("n") != 3 || row.Str("f") != "/x" || row.Str("l") != "/z" {
		t.Fatalf("row = %v", row)
	}
}

func TestBuiltinTimeField(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select path, max(__time) as lastAccess from Access group by path")
	e.Insert(access(10*time.Second, "/a", "dn1"))
	e.Insert(access(25*time.Second, "/a", "dn1"))
	row := st.MustRows()[0]
	if row.Num("lastAccess") != 25 {
		t.Fatalf("lastAccess = %v, want 25", row.Num("lastAccess"))
	}
}

func TestArithmeticInSelectAndHaving(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	// Per-replica access intensity: count/replicas > 2.
	st := e.MustCompile(
		"select path, count(*) / replicas as perReplica from Access group by path having count(*) / replicas > 2")
	for i := 0; i < 9; i++ {
		ev := access(time.Duration(i)*time.Second, "/hot", "dn1")
		ev.SetNum(aReplicas, 3)
		e.Insert(ev)
	}
	for i := 0; i < 5; i++ {
		ev := access(time.Duration(i)*time.Second, "/warm", "dn1")
		ev.SetNum(aReplicas, 3)
		e.Insert(ev)
	}
	rows := st.MustRows()
	if len(rows) != 1 || rows[0].Str("path") != "/hot" || rows[0].Num("perReplica") != 3 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestMultipleStatementsSameStream(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	a := e.MustCompile("select count(*) as cnt from Access")
	b := e.MustCompile("select count(*) as cnt from Access where path = '/a'")
	other := e.MustCompile("select count(*) as cnt from Heartbeat")
	e.Insert(access(0, "/a", "dn1"))
	e.Insert(access(0, "/b", "dn1"))
	if a.MustRows()[0].Num("cnt") != 2 {
		t.Fatal("statement a")
	}
	if b.MustRows()[0].Num("cnt") != 1 {
		t.Fatal("statement b")
	}
	if rows := other.MustRows(); rows != nil {
		t.Fatalf("statement on other stream got events: %v", rows)
	}
	if e.Inserted() != 2 {
		t.Fatalf("Inserted = %d", e.Inserted())
	}
}

func TestGroupByMultipleKeys(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select path, datanode, count(*) as cnt from Access group by path, datanode")
	e.Insert(access(0, "/a", "dn1"))
	e.Insert(access(0, "/a", "dn2"))
	e.Insert(access(0, "/a", "dn1"))
	rows := st.MustRows()
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0].Str("datanode") != "dn1" || rows[0].Num("cnt") != 2 {
		t.Fatalf("first group = %v (insertion order expected)", rows[0])
	}
}

func TestParseErrors(t *testing.T) {
	for _, epl := range []string{
		"",
		"select",
		"select x",
		"select x from",
		"select x from S.win:bogus(3)",
		"select x from S.win:time(abc)",
		"select x from S.win:length(0)",
		"select x from S where count(*) > 1",     // aggregate in where
		"select x from S group by count(*)",      // aggregate in group by
		"select count(sum(x)) from S",            // nested aggregate
		"select x from S trailing",               // trailing tokens
		"select 'unterminated from S",            // bad string
		"select x from S where x ~ 3",            // bad char
		"select x from S.win:time(60s) group by", // missing group expr
		"select x as from S",                     // missing alias ident
	} {
		if _, err := ParseQuery(epl); err == nil {
			t.Fatalf("ParseQuery(%q) succeeded", epl)
		}
	}
}

func TestParseDurationsAndUnits(t *testing.T) {
	for epl, want := range map[string]time.Duration{
		"select x from S.win:time(500 ms)": 500 * time.Millisecond,
		"select x from S.win:time(60s)":    time.Minute,
		"select x from S.win:time(5 min)":  5 * time.Minute,
		"select x from S.win:time(2 h)":    2 * time.Hour,
		"select x from S.win:time(90)":     90 * time.Second,
		"select x from S.win:time(1.5 s)":  1500 * time.Millisecond,
	} {
		q, err := ParseQuery(epl)
		if err != nil {
			t.Fatalf("%q: %v", epl, err)
		}
		if q.Window.Kind != WindowTime || q.Window.Dur != want {
			t.Fatalf("%q: window = %+v, want %v", epl, q.Window, want)
		}
	}
}

func TestKeepAllWindowExplicit(t *testing.T) {
	q, err := ParseQuery("select x from S.win:keepall")
	if err != nil {
		t.Fatal(err)
	}
	if q.Window.Kind != WindowKeepAll {
		t.Fatalf("window = %+v", q.Window)
	}
	if q.Source() == "" {
		t.Fatal("source lost")
	}
}

func TestEvalErrors(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	// Division by zero surfaces as an error from Rows.
	st := e.MustCompile("select bytes / zero as x, count(*) as n from Access")
	ev := access(0, "/a", "dn1")
	ev.SetNum(aZero, 0)
	e.Insert(ev)
	if _, err := st.Rows(); err == nil {
		t.Fatal("division by zero not reported")
	}
	// Arithmetic on strings.
	st2 := e.MustCompile("select path + 1 as x, count(*) as n from Access")
	e.Insert(access(0, "/a", "dn1"))
	if _, err := st2.Rows(); err == nil {
		t.Fatal("string arithmetic not reported")
	}
	// Missing field is null, not an error, and count skips it.
	st3 := e.MustCompile("select count(nosuch) as n from Access")
	e.Insert(access(0, "/a", "dn1"))
	if st3.MustRows()[0].Num("n") != 0 {
		t.Fatal("count over missing field should be 0")
	}
}

func TestBooleanOperators(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile(
		"select path, count(*) as n from Access where (cmd = 'open' or cmd = 'create') and not (path = '/no') group by path")
	e.Insert(access(0, "/yes", "dn1"))
	e.Insert(access(0, "/no", "dn1"))
	rows := st.MustRows()
	if len(rows) != 1 || rows[0].Str("path") != "/yes" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestComparisonOperators(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select path, count(*) as n from Access " +
		"where bytes >= 64 and bytes <= 64 and bytes < 65 and bytes > 63 and path >= '/a' group by path")
	e.Insert(access(0, "/a", "dn1"))
	if len(st.MustRows()) != 1 {
		t.Fatal("comparison chain failed")
	}
}

func TestUnaryMinus(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select -bytes as neg, count(*) as n from Access")
	e.Insert(access(0, "/a", "dn1"))
	if st.MustRows()[0].Num("neg") != -64 {
		t.Fatal("unary minus")
	}
}

// Property: a grouped count over a keepall window equals the number of
// inserted events per group key.
func TestQuickGroupedCount(t *testing.T) {
	f := func(keys []uint8) bool {
		c := &testClock{}
		e := New(c.clock)
		st := e.MustCompile("select k, count(*) as cnt from S group by k")
		want := map[string]int{}
		for _, k := range keys {
			key := string(rune('a' + int(k%5)))
			want[key]++
			e.Insert(sEvent(0, 0, key))
		}
		rows, err := st.Rows()
		if err != nil {
			return false
		}
		if len(rows) != len(want) {
			return false
		}
		for _, r := range rows {
			if int(r.Num("cnt")) != want[r.Str("k")] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: time window retention matches a direct filter over insert times.
func TestQuickTimeWindow(t *testing.T) {
	f := func(offsets []uint16, windowSec uint8, nowSec uint16) bool {
		c := &testClock{}
		e := New(c.clock)
		w := time.Duration(int(windowSec)+1) * time.Second
		st, err := e.Compile(fmt.Sprintf(
			"select count(*) as cnt from S.win:time(%d s)", int(windowSec)+1))
		if err != nil {
			return false
		}
		var times []time.Duration
		last := time.Duration(0)
		for _, o := range offsets {
			last += time.Duration(o%1000) * time.Millisecond
			times = append(times, last)
			e.Insert(sSchema.Event(last))
		}
		c.now = last + time.Duration(nowSec)*time.Millisecond
		wantCount := 0
		for _, tm := range times {
			if tm >= c.now-w { // trailing edge is inclusive
				wantCount++
			}
		}
		rows, err := st.Rows()
		if err != nil {
			return false
		}
		got := 0
		if len(rows) == 1 {
			got = int(rows[0].Num("cnt"))
		}
		return got == wantCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStatementClose(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	a := e.MustCompile("select count(*) as cnt from S")
	b := e.MustCompile("select count(*) as cnt from S")
	e.Insert(sSchema.Event(0))
	a.Close()
	e.Insert(sSchema.Event(0))
	if !a.Closed() || a.WindowSize() != 0 {
		t.Fatal("closed statement retained state")
	}
	if got := b.MustRows()[0].Num("cnt"); got != 2 {
		t.Fatalf("sibling statement cnt = %v, want 2", got)
	}
	a.Close() // idempotent
	if rows := a.MustRows(); rows != nil {
		t.Fatalf("closed statement produced rows: %v", rows)
	}
}

func TestRowHelpersAndCoercions(t *testing.T) {
	r := Row{"s": "text", "n": 4.0, "i": 7, "i64": int64(8), "b": true, "x": struct{}{}}
	if r.Num("n") != 4 || r.Num("i") != 7 || r.Num("i64") != 8 || r.Num("b") != 1 {
		t.Fatal("numeric coercions")
	}
	if r.Num("missing") != 0 || r.Num("s") != 0 || r.Num("x") != 0 {
		t.Fatal("non-numeric should be 0")
	}
	if r.Str("s") != "text" || r.Str("missing") != "" {
		t.Fatal("string access")
	}
	if r.Str("n") == "" { // non-strings render via Sprint
		t.Fatal("fallback rendering")
	}
}

func TestEqualityAcrossTypes(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	// Numeric equality coerces bools and ints; string/number mismatch is
	// inequality, not an error.
	st := e.MustCompile("select path, count(*) as n from Access where flag = 1 and path != 5 group by path")
	ev := access(0, "/a", "dn1")
	ev.SetBool(aFlag, true)
	e.Insert(ev)
	rows := st.MustRows()
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestStatementQueryAccessor(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select count(*) from Access.win:length(5)")
	q := st.Query()
	if q.From != "Access" || q.Window.Kind != WindowLength || q.Window.N != 5 {
		t.Fatalf("query = %+v", q)
	}
}

func TestNilClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(nil)
}

func TestMustCompilePanicsOnBadEPL(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.MustCompile("not epl")
}

func TestOrderedStringComparisonErrors(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	// The where clause runs at insert time, so a type error surfaces from
	// Insert itself.
	e.MustCompile("select count(*) from Access where path > 3")
	if err := e.Insert(access(0, "/a", "dn1")); err == nil {
		t.Fatal("string/number comparison accepted")
	}
	// 'not' on a non-boolean is an error too.
	e2 := New(c.clock)
	e2.MustCompile("select count(*) from Access where not path")
	if err := e2.Insert(access(0, "/b", "dn1")); err == nil {
		t.Fatal("not on string accepted")
	}
}

// order by is not in the grammar (callers sort in Go): every form of it,
// well-formed or not, is a parse error, and so is a malformed limit.
func TestOrderByParseErrors(t *testing.T) {
	for _, epl := range []string{
		"select x from S order x",
		"select x from S order by",
		"select x, count(*) as cnt from S group by x order by cnt desc, x limit 2",
		"select x from S limit 0",
		"select x from S limit x",
		"select x from S limit 2.5",
	} {
		if _, err := ParseQuery(epl); err == nil {
			t.Fatalf("ParseQuery(%q) succeeded", epl)
		}
	}
}

func TestLimitWithoutOrder(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select path, count(*) as n from Access group by path limit 1")
	e.Insert(access(0, "/a", "dn1"))
	e.Insert(access(0, "/b", "dn1"))
	if rows := st.MustRows(); len(rows) != 1 || rows[0].Str("path") != "/a" {
		t.Fatalf("rows = %v, want the first group only", rows)
	}
}

// The three TestGeneric* tests below pin the aggregates' null, type-error
// and having semantics. They were written against the retained-window
// evaluator this package once also had; the names are kept so the suite's
// test list stays stable.

func TestGenericAggregatesSkipMissingFields(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	// The aggregates read the raw field, so a missing value skips the event
	// instead of failing arithmetic.
	st := e.MustCompile("select path, avg(bytes) as a, min(bytes) as mn, " +
		"max(bytes) as mx, count(bytes) as cb from Access group by path")
	ev := accessSchema.Event(time.Second) // bytes left unset
	ev.SetStr(aPath, "/gap")
	e.Insert(ev)
	rows := st.MustRows()
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	// All bytes values were missing: counts are zero and the mean/extrema
	// are null, not zero or infinity.
	r := rows[0]
	if r.Num("cb") != 0 {
		t.Fatalf("count over missing field = %v", r.Num("cb"))
	}
	for _, col := range []string{"a", "mn", "mx"} {
		if v, ok := r[col]; !ok || v != nil {
			t.Fatalf("%s over empty group = %v, want nil", col, v)
		}
	}
}

func TestGenericHavingComparisons(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select path, max(bytes) as mx, min(bytes) as mn " +
		"from Access group by path " +
		"having mx >= 64 and mn <= 32 and mx > 63 and mn < 33")
	for i, path := range []string{"/in", "/in", "/out"} {
		ev := access(time.Duration(i)*time.Second, path, "dn1")
		if path == "/in" && i == 1 {
			ev.SetNum(aBytes, 32)
		}
		e.Insert(ev)
	}
	rows := st.MustRows()
	if len(rows) != 1 || rows[0].Str("path") != "/in" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestGenericAggregateErrors(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)

	// Aggregating a non-numeric field is an evaluation error, not a panic
	// or a silent zero.
	st := e.MustCompile("select last(datanode) as ld, sum(datanode) as s from Access group by path")
	e.Insert(access(time.Second, "/x", "dn1"))
	if _, err := st.Rows(); err == nil || !strings.Contains(err.Error(), "non-numeric") {
		t.Fatalf("sum over strings: %v", err)
	}

	// An aggregate node no planner bound has no group to fold.
	agg := &aggExpr{fn: "sum", arg: &fieldExpr{name: "bytes"}}
	if _, err := agg.eval(&Event{}); err == nil {
		t.Fatal("aggregate outside grouped evaluation succeeded")
	}
}

// One statement's where-clause error must not cost its siblings the event:
// Insert dispatches to all of them and reports the first error.
func TestInsertErrorDoesNotStarveSiblings(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	e.MustCompile("select count(*) as cnt from Access where bytes > 'x'")
	plain := e.MustCompile("select count(*) as cnt from Access")
	err := e.Insert(access(0, "/a", "dn1"))
	if err == nil || !strings.Contains(err.Error(), "where clause") {
		t.Fatalf("Insert error = %v, want the first statement's where-clause error", err)
	}
	rows := plain.MustRows()
	if len(rows) != 1 || rows[0].Num("cnt") != 1 {
		t.Fatalf("sibling rows = %v, want one row with cnt 1", rows)
	}
	if e.Inserted() != 1 {
		t.Fatalf("Inserted = %d, want 1", e.Inserted())
	}
}

func TestInsertWithoutSchemaIsAnError(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	if err := e.Insert(Event{Time: time.Second}); err == nil {
		t.Fatal("Insert of a schema-less event succeeded")
	}
	if e.Inserted() != 0 {
		t.Fatalf("Inserted = %d, want 0: the event was not accepted", e.Inserted())
	}
}

// What the evaluator cannot run is a Compile error that names the clause
// at fault.
func TestCompileRejectsUnsupportedShapes(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	for _, tc := range []struct{ epl, clause string }{
		{"select path from Access", "select clause"},
		{"select path, bytes + 1 from Access where cmd = 'open' limit 3", "select clause"},
		{"select sum(bytes + 0) as s from Access", "select clause"},
		{"select path, count(-bytes) from Access group by path", "select clause"},
		{"select path from Access group by path having max(bytes * 2) > 1", "having clause"},
		{"select count(*) from Access group by path + 'x'", "group by clause"},
		{"select count(*) from Access group by 1", "group by clause"},
		{"select count(*) from Access group by path, cmd, datanode, bytes", "group by clause"},
		{"select path, count(*) as cnt from Access group by path order by cnt desc", `"order"`},
	} {
		_, err := e.Compile(tc.epl)
		if err == nil {
			t.Fatalf("Compile(%q) succeeded", tc.epl)
		}
		if !strings.Contains(err.Error(), tc.clause) {
			t.Fatalf("Compile(%q) = %v, want an error naming the %s", tc.epl, err, tc.clause)
		}
	}
	if n := len(e.statements); n != 0 {
		t.Fatalf("%d rejected statements were registered", n)
	}
}
