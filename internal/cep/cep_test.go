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

// compile registers q on e, failing the test on an error.
func compile(t testing.TB, e *Engine, q Query) *Statement {
	t.Helper()
	st, err := e.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// byPath counts Access events per path over a minute, unfiltered.
var byPath = Query{From: "Access", Window: time.Minute, GroupBy: []string{"path"}}

// where returns q filtered to the events whose field equals v.
func where(q Query, field string, v Val) Query {
	q.Where, q.Equals = field, v
	return q
}

func TestWhereFilters(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := compile(t, e, where(byPath, "cmd", StrVal("open")))
	e.Insert(access(time.Second, "/keep", "dn1"))
	ev := access(time.Second, "/write", "dn1")
	ev.SetStr(aCmd, "create")
	e.Insert(ev)
	if got := text(rows(st)); got != "[/keep 1]" {
		t.Fatalf("rows = %s", got)
	}
}

// A Query has no having clause: the judge applies its thresholds to
// EachRow's counts in Go, which is the same filter.
func TestGroupByCountHaving(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := compile(t, e, byPath)
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
	q := byPath
	q.Window = 10 * time.Second
	st := compile(t, e, q)
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
// other fields hold; it is the row's last column.
func TestAggregates(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := compile(t, e, byPath)
	for i, p := range []string{"/x", "/y", "/x"} {
		ev := access(time.Duration(i)*time.Second, p, "dn1")
		ev.SetNum(aBytes, float64((i+1)*10))
		e.Insert(ev)
	}
	e.Insert(accessSchema.Event(3 * time.Second)) // every field null: the null group
	if got := text(rows(st)); got != "[/x 2][/y 1][ 1]" {
		t.Fatalf("rows = %s", got)
	}
}

func TestMultipleStatementsSameStream(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	byCmd := Query{From: "Access", Window: time.Minute, GroupBy: []string{"cmd"}}
	a := compile(t, e, byCmd)
	b := compile(t, e, where(byCmd, "path", StrVal("/a")))
	byCmd.From = "Heartbeat"
	other := compile(t, e, byCmd)
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
	st := compile(t, e, Query{From: "Access", Window: time.Minute, GroupBy: []string{"path", "datanode"}})
	e.Insert(access(0, "/a", "dn1"))
	e.Insert(access(0, "/a", "dn2"))
	e.Insert(access(0, "/a", "dn1"))
	if got := text(rows(st)); got != "[/a dn1 2][/a dn2 1]" {
		t.Fatalf("rows = %s (insertion order expected)", got)
	}
}

// There is no keep-all window: a zero Window keeps only the records of the
// current instant, so a statement that keeps more says how far back.
func TestKeepAllWindowExplicit(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := compile(t, e, Query{From: "S", GroupBy: []string{"k"}})
	e.Insert(sEvent(0, 0, "a"))
	c.now = time.Nanosecond
	e.Insert(sEvent(c.now, 0, "b"))
	if got := text(rows(st)); got != "[b 1]" {
		t.Fatalf("rows = %s, want only the current instant's [b 1]", got)
	}
}

// Evaluation cannot fail: a group key on a field the schema lacks reads as
// null, so its records form the null group, and EachRow has no error to
// return.
func TestEvalErrors(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := compile(t, e, Query{From: "Access", Window: time.Minute, GroupBy: []string{"nosuch"}})
	e.Insert(access(0, "/a", "dn1"))
	e.Insert(access(0, "/b", "dn1"))
	got := rows(st)
	if len(got) != 1 || !got[0][0].IsNull() || got[0][1] != NumVal(2) {
		t.Fatalf("rows = %v, want one null-key row counting 2", got)
	}
}

// Equality is the one comparison: a numeric Equals keeps the events whose
// field holds that number.
func TestComparisonOperators(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := compile(t, e, where(byPath, "bytes", NumVal(64)))
	e.Insert(access(0, "/a", "dn1"))
	if got := text(rows(st)); got != "[/a 1]" {
		t.Fatalf("rows = %s", got)
	}
}

// Property: a grouped count over a window that keeps everything equals the
// number of inserted events per group key.
func TestQuickGroupedCount(t *testing.T) {
	f := func(keys []uint8) bool {
		c := &testClock{}
		e := New(c.clock)
		st := compile(t, e, Query{From: "S", Window: time.Hour, GroupBy: []string{"k"}})
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
		st := compile(t, e, Query{From: "S", Window: w, GroupBy: []string{"k"}})
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
	count := func(field string, v Val) *Statement {
		return compile(t, e, where(Query{From: "Access", Window: time.Minute, GroupBy: []string{"cmd"}}, field, v))
	}
	num, str, strNum, missing, zero := count("bytes", NumVal(64)), count("bytes", StrVal("64")), count("path", NumVal(5)),
		count("nosuch", NumVal(1)), count("bytes", NumVal(0))
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

// A statement runs the query it was compiled from, keeping its own copy of
// the keys: the caller's slice may change afterwards.
func TestStatementQueryAccessor(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	keys := []string{"path", "datanode"}
	q := Query{From: "Access", Window: 90 * time.Second, Where: "cmd", Equals: StrVal("open"), GroupBy: keys}
	st := compile(t, e, q)
	keys[0] = "cmd"
	want := Query{From: "Access", Window: 90 * time.Second, Where: "cmd", Equals: StrVal("open"),
		GroupBy: []string{"path", "datanode"}}
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

// A Query has no limit: every group comes out, in first-appearance order,
// and a caller wanting the first n takes them.
func TestLimitWithoutOrder(t *testing.T) {
	c := &testClock{}
	e := New(c.clock)
	st := compile(t, e, byPath)
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
	st := compile(t, e, Query{From: "Access", Window: time.Minute, GroupBy: []string{"path", "cmd"}})
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

// What the evaluator cannot run is a Compile error, and registers
// nothing: no group by key, more than maxGroupKeyFields of them, a
// negative window.
func TestCompileRejectsUnsupportedShapes(t *testing.T) {
	for _, q := range []Query{
		{From: "Access", Window: time.Minute},
		{From: "Access", Window: time.Minute, GroupBy: []string{}},
		{From: "Access", Window: time.Minute, GroupBy: []string{"path", "cmd", "datanode", "bytes"}},
		{From: "Access", Window: -time.Nanosecond, GroupBy: []string{"path"}},
	} {
		e := New(func() time.Duration { return 0 })
		if _, err := e.Compile(q); err == nil {
			t.Fatalf("Compile(%+v) succeeded", q)
		}
		if n := len(e.statements); n != 0 {
			t.Fatalf("Compile(%+v) registered %d statements", q, n)
		}
	}
}
