package cep

import (
	"fmt"
	"math"
	"reflect"
	"slices"
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
	accessSchema = NewSchema("Access", "path", "cmd", "datanode", "bytes")
	sSchema      = NewSchema("S", "k", "path", "x")
)

// accessSchema slots.
const (
	aPath = iota
	aCmd
	aDatanode
	aBytes
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

// rows evaluates st, one []Val per row copied out of EachRow's buffer.
func rows(st *Statement) [][]Val {
	var out [][]Val
	st.EachRow(func(cols []Val) { out = append(out, slices.Clone(cols)) })
	return out
}

// text renders rows as "[k1 k2 ... n] ..." through Val.Str, null as "".
func text(rs [][]Val) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString("[")
		for i, v := range r {
			if i > 0 {
				b.WriteString(" ")
			}
			b.WriteString(v.Str())
		}
		b.WriteString("]")
	}
	return b.String()
}

// rejects asserts that Compile fails on epl with an error naming clause,
// and registers nothing.
func rejects(t *testing.T, epl, clause string) {
	t.Helper()
	e := New(func() time.Duration { return 0 })
	if _, err := e.Compile(epl); err == nil || !strings.Contains(err.Error(), clause+" clause") {
		t.Fatalf("Compile(%q) = %v, want an error naming the %s clause", epl, err, clause)
	}
	if n := len(e.statements); n != 0 {
		t.Fatalf("Compile(%q) registered %d statements", epl, n)
	}
}

func TestWhereFilters(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select path, count(*) as n from Access.win:time(60 s) where cmd = 'open' group by path")
	e.Insert(access(time.Second, "/keep", "dn1"))
	ev := access(time.Second, "/write", "dn1")
	ev.SetStr(aCmd, "create")
	e.Insert(ev)
	if got := text(rows(st)); got != "[/keep 1]" {
		t.Fatalf("rows = %s", got)
	}
}

// having is not in the language: the judge applies its thresholds to
// EachRow's counts in Go, which is the same filter.
func TestGroupByCountHaving(t *testing.T) {
	rejects(t, "select path, count(*) as cnt from Access.win:time(60 s) group by path having cnt >= 2", "having")
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select path, count(*) as cnt from Access.win:time(60 s) group by path")
	for i := 0; i < 3; i++ {
		e.Insert(access(time.Duration(i)*time.Second, "/hot", "dn1"))
	}
	e.Insert(access(time.Second, "/cold", "dn2"))
	var kept []string
	st.EachRow(func(cols []Val) {
		if cols[1].Num() >= 2 {
			kept = append(kept, fmt.Sprint(cols[0].Str(), " ", cols[1].Num()))
		}
	})
	if !reflect.DeepEqual(kept, []string{"/hot 3"}) {
		t.Fatalf("kept = %v", kept)
	}
}

func TestTimeWindowExpiry(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select path, count(*) as cnt from Access.win:time(10s) group by path")
	e.Insert(access(1*time.Second, "/a", "dn1"))
	e.Insert(access(5*time.Second, "/a", "dn1"))
	c.now = 8 * time.Second
	if got := text(rows(st)); got != "[/a 2]" {
		t.Fatalf("at 8s: %s, want [/a 2]", got)
	}
	c.now = 12 * time.Second // the event at 1s has aged out (1 < 12-10)
	if got := text(rows(st)); got != "[/a 1]" {
		t.Fatalf("at 12s: %s, want [/a 1]", got)
	}
	c.now = 30 * time.Second
	if got := rows(st); got != nil {
		t.Fatalf("at 30s: %v, want no rows", got)
	}
	if st.expiry.len() != 0 || len(st.groups) != 0 {
		t.Fatalf("empty window retains %d records in %d groups", st.expiry.len(), len(st.groups))
	}
}

// count(*) counts every record of the group in the window, whatever its
// other fields hold; the same column may be selected twice, in any order.
func TestAggregates(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select count(*) as n, path, count(*) as m from Access.win:time(60 s) group by path")
	for i, p := range []string{"/x", "/y", "/x"} {
		ev := access(time.Duration(i)*time.Second, p, "dn1")
		ev.SetNum(aBytes, float64((i+1)*10))
		e.Insert(ev)
	}
	e.Insert(accessSchema.Event(3 * time.Second)) // every field null: the null group
	if got := text(rows(st)); got != "[2 /x 2][1 /y 1][1  1]" {
		t.Fatalf("rows = %s", got)
	}
}

// The builtin __time field is gone: it is not an identifier, in any clause.
func TestBuiltinTimeField(t *testing.T) {
	rejects(t, "select path, __time, count(*) from Access.win:time(60 s) group by path", "select")
	rejects(t, "select path, count(*) from Access.win:time(60 s) where __time = 3 group by path", "where")
	rejects(t, "select path, count(*) from Access.win:time(60 s) group by path, __time", "group by")
}

func TestArithmeticInSelectAndHaving(t *testing.T) {
	rejects(t, "select path, count(*) / replicas as perReplica from Access.win:time(60 s) group by path", "select")
	rejects(t, "select path, count(*) as n from Access.win:time(60 s) group by path having count(*) / replicas > 2", "having")
}

func TestMultipleStatementsSameStream(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	a := e.MustCompile("select cmd, count(*) as cnt from Access.win:time(60 s) group by cmd")
	b := e.MustCompile("select cmd, count(*) as cnt from Access.win:time(60 s) where path = '/a' group by cmd")
	other := e.MustCompile("select cmd, count(*) as cnt from Heartbeat.win:time(60 s) group by cmd")
	e.Insert(access(0, "/a", "dn1"))
	e.Insert(access(0, "/b", "dn1"))
	if got := text(rows(a)); got != "[open 2]" {
		t.Fatalf("statement a: %s", got)
	}
	if got := text(rows(b)); got != "[open 1]" {
		t.Fatalf("statement b: %s", got)
	}
	if got := rows(other); got != nil {
		t.Fatalf("statement on another stream got events: %v", got)
	}
	if e.inserted != 2 {
		t.Fatalf("inserted = %d", e.inserted)
	}
}

func TestGroupByMultipleKeys(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select path, datanode, count(*) as cnt from Access.win:time(60 s) group by path, datanode")
	e.Insert(access(0, "/a", "dn1"))
	e.Insert(access(0, "/a", "dn2"))
	e.Insert(access(0, "/a", "dn1"))
	if got := text(rows(st)); got != "[/a dn1 2][/a dn2 1]" {
		t.Fatalf("rows = %s (insertion order expected)", got)
	}
}

// TestParseErrors: malformed statements, and one row per construct the
// language once had and no longer runs, each an error naming its clause.
func TestParseErrors(t *testing.T) {
	const from = " from S.win:time(60 s) "
	for _, tc := range []struct{ epl, clause string }{
		{"", "select"},
		{"select", "select"},
		{"select x", "select"},
		{"select x from", "from"},
		{"select x as from S.win:time(60 s) group by x", "select"}, // missing alias
		{"select 'unterminated from S", "select"},
		{"select x from S.win:bogus(3) group by x", "from"},
		{"select x from S.win:time(abc) group by x", "from"},
		{"select x from S.win:time(60) group by x", "from"},      // no unit
		{"select x from S.win:time(60 sec) group by x", "from"},  // unknown unit
		{"select x from S.win:time(1e3 ms) group by x", "from"},  // scientific notation
		{"select x from S.win:time(1.2.3 s) group by x", "from"}, // bad number
		{"select x" + from, "from"},                              // no group by
		{"select x" + from + "group by", "group by"},             // missing key
		{"select x" + from + "where x ~ 3 group by x", "where"},  // bad character
		{"select x" + from + "group by x trailing", "trailing"},  // trailing tokens
		{"select x, count(*)" + from + "group by a, b, c, d", "group by"},
		// Aggregates other than count(*).
		{"select count(x)" + from + "group by x", "select"},
		{"select sum(x)" + from + "group by k", "select"},
		{"select avg(x)" + from + "group by k", "select"},
		{"select min(x)" + from + "group by k", "select"},
		{"select max(x)" + from + "group by k", "select"},
		{"select first(x)" + from + "group by k", "select"},
		{"select last(x)" + from + "group by k", "select"},
		{"select count(sum(x))" + from + "group by k", "select"},
		// Operators.
		{"select k" + from + "where x = 1 and k = 2 group by k", "where"},
		{"select k" + from + "where x = 1 or k = 2 group by k", "where"},
		{"select k" + from + "where not x = 1 group by k", "where"},
		{"select k" + from + "where x != 1 group by k", "where"},
		{"select k" + from + "where x < 1 group by k", "where"},
		{"select k" + from + "where x <= 1 group by k", "where"},
		{"select k" + from + "where x > 1 group by k", "where"},
		{"select k" + from + "where x >= 1 group by k", "where"},
		{"select k" + from + "where x = 1 + 1 group by k", "where"},
		{"select k + 1" + from + "group by k", "select"},
		{"select k - 1" + from + "group by k", "select"},
		{"select k * 2" + from + "group by k", "select"},
		{"select count(*) / 2" + from + "group by k", "select"},
		{"select -k" + from + "group by k", "select"},
		{"select k" + from + "where x = -1 group by k", "where"},
		{"select k" + from + "where x = (1) group by k", "where"},
		{"select count(*)" + from + "group by k + 'x'", "group by"},
		{"select count(*)" + from + "group by 1", "group by"},
		// Clauses, windows, fields and literals.
		{"select k, count(*) as n" + from + "group by k having n > 1", "having"},
		{"select k" + from + "group by k limit 1", "limit"},
		{"select k, count(*) from S.win:length(5) group by k", "from"},
		{"select k, count(*) from S.win:keepall group by k", "from"},
		{"select k, count(*) from S group by k", "from"},
		{"select k, count(*)" + from + "where __time = 3 group by k", "where"},
		{"select k, count(*)" + from + "where flag = true group by k", "where"},
		{"select k, x, count(*)" + from + "group by k", "select"}, // a selected non-key field
		{"select k" + from + "group by k order by k", "order"},
	} {
		_, err := parseQuery(tc.epl)
		if err == nil || !strings.Contains(err.Error(), tc.clause+" clause") {
			t.Errorf("parseQuery(%q) = %v, want an error naming the %s clause", tc.epl, err, tc.clause)
		}
	}
}

func TestParseDurationsAndUnits(t *testing.T) {
	for epl, want := range map[string]time.Duration{
		"select k from S.win:time(500 ms) group by k":  500 * time.Millisecond,
		"select k from S.win:time(1500 ms) group by k": 1500 * time.Millisecond,
		"select k from S.win:time(60s) group by k":     time.Minute,
		"select k from S.win:time(5 MIN) group by k":   5 * time.Minute,
		"select k from S.win:time(2 h) group by k":     2 * time.Hour,
		"select k from S.win:time(1.5 s) group by k":   1500 * time.Millisecond,
	} {
		q, err := parseQuery(epl)
		if err != nil {
			t.Fatalf("%q: %v", epl, err)
		}
		if q.window != want {
			t.Fatalf("%q: window = %v, want %v", epl, q.window, want)
		}
	}
}

// The window is required and is a time window: keepall and the no-window
// form fail in the from clause, while the same statement on win:time runs.
func TestKeepAllWindowExplicit(t *testing.T) {
	rejects(t, "select k, count(*) from S.win:keepall group by k", "from")
	rejects(t, "select k, count(*) from S group by k", "from")
	if _, err := parseQuery("select k, count(*) from S.win:time(1 h) group by k"); err != nil {
		t.Fatal(err)
	}
}

// Evaluation cannot fail: a group key on a field the schema lacks reads as
// null, so its records form the null group, and EachRow has no error to
// return.
func TestEvalErrors(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select nosuch, count(*) as n from Access.win:time(60 s) group by nosuch")
	e.Insert(access(0, "/a", "dn1"))
	e.Insert(access(0, "/b", "dn1"))
	got := rows(st)
	if len(got) != 1 || !got[0][0].IsNull() || got[0][1] != NumVal(2) {
		t.Fatalf("rows = %v, want one null-key row counting 2", got)
	}
}

func TestBooleanOperators(t *testing.T) {
	const from = " from Access.win:time(60 s) "
	rejects(t, "select path, count(*) as n"+from+"where cmd = 'open' or cmd = 'create' group by path", "where")
	rejects(t, "select path, count(*) as n"+from+"where cmd = 'open' and path = '/no' group by path", "where")
	rejects(t, "select path, count(*) as n"+from+"where not path = '/no' group by path", "where")
}

// = is the one operator; the ordered ones are Compile errors in the where
// clause.
func TestComparisonOperators(t *testing.T) {
	for _, op := range []string{"!=", "<", "<=", ">", ">="} {
		rejects(t, "select path, count(*) as n from Access.win:time(60 s) where bytes "+op+" 64 group by path", "where")
	}
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select path, count(*) as n from Access.win:time(60 s) where bytes = 64 group by path")
	e.Insert(access(0, "/a", "dn1"))
	if got := text(rows(st)); got != "[/a 1]" {
		t.Fatalf("rows = %s", got)
	}
}

func TestUnaryMinus(t *testing.T) {
	rejects(t, "select -bytes as neg, count(*) as n from Access.win:time(60 s) group by bytes", "select")
	rejects(t, "select bytes, count(*) as n from Access.win:time(60 s) where bytes = -64 group by bytes", "where")
}

// Property: a grouped count over a window that keeps everything equals the
// number of inserted events per group key.
func TestQuickGroupedCount(t *testing.T) {
	f := func(keys []uint8) bool {
		c := &testClock{}
		e := New(c.clock)
		st := e.MustCompile("select k, count(*) as cnt from S.win:time(1 h) group by k")
		want := map[string]int{}
		for _, k := range keys {
			key := string(rune('a' + int(k%5)))
			want[key]++
			e.Insert(sEvent(0, 0, key))
		}
		got := rows(st)
		if len(got) != len(want) {
			return false
		}
		for _, r := range got {
			if int(r[1].Num()) != want[r[0].Str()] {
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
			"select k, count(*) as cnt from S.win:time(%d s) group by k", int(windowSec)+1))
		if err != nil {
			return false
		}
		var times []time.Duration
		last := time.Duration(0)
		for _, o := range offsets {
			last += time.Duration(o%1000) * time.Millisecond
			times = append(times, last)
			e.Insert(sSchema.Event(last)) // k unset: one null group
		}
		c.now = last + time.Duration(nowSec)*time.Millisecond
		wantCount := 0
		for _, tm := range times {
			if tm >= c.now-w { // trailing edge is inclusive
				wantCount++
			}
		}
		got := 0
		for _, r := range rows(st) {
			got += int(r[1].Num())
		}
		return got == wantCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Val's readers: a number reads as itself and prints shortest, a string
// as itself and 0, null as "" and 0.
func TestRowHelpersAndCoercions(t *testing.T) {
	for _, tc := range []struct {
		v    Val
		num  float64
		str  string
		null bool
	}{
		{NumVal(4), 4, "4", false},
		{NumVal(0.5), 0.5, "0.5", false},
		{StrVal("text"), 0, "text", false},
		{StrVal("7"), 0, "7", false},
		{Val{}, 0, "", true},
	} {
		if tc.v.Num() != tc.num || tc.v.Str() != tc.str || tc.v.IsNull() != tc.null {
			t.Fatalf("%#v: Num %v Str %q IsNull %v", tc.v, tc.v.Num(), tc.v.Str(), tc.v.IsNull())
		}
	}
}

// The where literal matches by kind and value: a number never equals a
// string, a field the schema lacks matches nothing, and −0 equals 0.
func TestEqualityAcrossTypes(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	count := func(where string) *Statement {
		return e.MustCompile("select cmd, count(*) as n from Access.win:time(60 s) where " + where + " group by cmd")
	}
	num, str, strNum, missing, zero := count("bytes = 64"), count("bytes = '64'"), count("path = 5"), count("nosuch = 1"), count("bytes = 0")
	e.Insert(access(0, "/a", "dn1"))
	e.Insert(access(0, "5", "dn1"))
	ev := access(0, "/z", "dn1")
	ev.SetNum(aBytes, math.Copysign(0, -1))
	e.Insert(ev)
	for _, tc := range []struct {
		st   *Statement
		want string
	}{{num, "[open 2]"}, {str, ""}, {strNum, ""}, {missing, ""}, {zero, "[open 1]"}} {
		if got := text(rows(tc.st)); got != tc.want {
			t.Fatalf("rows = %q, want %q", got, tc.want)
		}
	}
}

// The parsed query a statement runs: its stream, window, filter, keys and
// select columns.
func TestStatementQueryAccessor(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select count(*) as n, datanode, path as p from Access.win:time(90 s) where cmd = 'open' group by path, datanode")
	want := &query{from: "Access", window: 90 * time.Second, where: "cmd", whereVal: StrVal("open"),
		keys: []string{"path", "datanode"}, sel: []int{-1, 1, 0}}
	if !reflect.DeepEqual(st.q, want) {
		t.Fatalf("query = %+v, want %+v", st.q, want)
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

// An ordered comparison was an Insert-time type error; now it is a Compile
// error in the where clause, so no statement that could fail is registered.
func TestOrderedStringComparisonErrors(t *testing.T) {
	rejects(t, "select path, count(*) from Access.win:time(60 s) where path > 3 group by path", "where")
	rejects(t, "select path, count(*) from Access.win:time(60 s) where path < 'b' group by path", "where")
}

// order by is not in the grammar (callers sort in Go): every form of it,
// well-formed or not, is a parse error, and so is limit.
func TestOrderByParseErrors(t *testing.T) {
	for _, tc := range []struct{ epl, clause string }{
		{"select x from S order x", "from"},
		{"select x from S.win:time(1 s) group by x order by", "order"},
		{"select x, count(*) as cnt from S.win:time(1 s) group by x order by cnt desc, x limit 2", "order"},
		{"select x from S.win:time(1 s) group by x limit 2", "limit"},
	} {
		rejects(t, tc.epl, tc.clause)
	}
}

// limit is not in the grammar: every group comes out, in first-appearance
// order, and a caller wanting the first n takes them.
func TestLimitWithoutOrder(t *testing.T) {
	rejects(t, "select path, count(*) as n from Access.win:time(60 s) group by path limit 1", "limit")
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select path, count(*) as n from Access.win:time(60 s) group by path")
	e.Insert(access(0, "/a", "dn1"))
	e.Insert(access(0, "/b", "dn1"))
	e.Insert(access(0, "/a", "dn1"))
	if got := text(rows(st)); got != "[/a 2][/b 1]" {
		t.Fatalf("rows = %s, want both groups, /a first", got)
	}
}

// A record whose key slots were left unset counts in the null group, and
// one null key among several still splits groups by the others.
func TestGenericAggregatesSkipMissingFields(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := e.MustCompile("select path, cmd, count(*) as n from Access.win:time(60 s) group by path, cmd")
	ev := accessSchema.Event(time.Second) // cmd left unset
	ev.SetStr(aPath, "/gap")
	e.Insert(ev)
	e.Insert(ev)
	e.Insert(access(time.Second, "/gap", "dn1"))
	e.Insert(accessSchema.Event(time.Second)) // every slot unset
	got := rows(st)
	want := [][]Val{{StrVal("/gap"), {}, NumVal(2)}, {StrVal("/gap"), StrVal("open"), NumVal(1)}, {{}, {}, NumVal(1)}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestGenericHavingComparisons(t *testing.T) {
	for _, having := range []string{"cnt >= 64", "cnt <= 32", "cnt > 63 and cnt < 33", "cnt = 1"} {
		rejects(t, "select path, count(*) as cnt from Access.win:time(60 s) group by path having "+having, "having")
	}
}

// Every aggregate but count(*), over a number or a string, is a Compile
// error in the select clause.
func TestGenericAggregateErrors(t *testing.T) {
	for _, fn := range []string{"count", "sum", "avg", "min", "max", "first", "last"} {
		for _, arg := range []string{"bytes", "datanode"} {
			rejects(t, "select path, "+fn+"("+arg+") from Access.win:time(60 s) group by path", "select")
		}
	}
}

func TestInsertWithoutSchemaIsAnError(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	if err := e.Insert(Event{Time: time.Second}); err == nil {
		t.Fatal("Insert of a schema-less event succeeded")
	}
	if e.inserted != 0 {
		t.Fatalf("inserted = %d, want 0: the event was not accepted", e.inserted)
	}
}

// What the evaluator cannot run is a Compile error that names the clause
// at fault.
func TestCompileRejectsUnsupportedShapes(t *testing.T) {
	for _, tc := range []struct{ epl, clause string }{
		{"select path from Access.win:time(60 s)", "from"},
		{"select path, bytes + 1 from Access.win:time(60 s) where cmd = 'open' group by path", "select"},
		{"select sum(bytes + 0) as s from Access.win:time(60 s) group by path", "select"},
		{"select path, count(-bytes) from Access.win:time(60 s) group by path", "select"},
		{"select path from Access.win:time(60 s) group by path having max(bytes * 2) > 1", "having"},
		{"select count(*) from Access.win:time(60 s) group by path + 'x'", "group by"},
		{"select count(*) from Access.win:time(60 s) group by 1", "group by"},
		{"select count(*) from Access.win:time(60 s) group by path, cmd, datanode, bytes", "group by"},
		{"select path, bytes, count(*) from Access.win:time(60 s) group by path", "select"},
		{"select path, count(*) as cnt from Access.win:time(60 s) group by path order by cnt desc", "order"},
	} {
		rejects(t, tc.epl, tc.clause)
	}
}
