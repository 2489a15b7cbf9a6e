package cep

import (
	"fmt"
	"testing"
	"time"
)

// groupedInsert returns one step of the judge-shaped hot path: a typed
// event through a where filter into a grouped time window.
func groupedInsert() func() {
	now := time.Duration(0)
	e := New(func() time.Duration { return now })
	e.MustCompile("select path, count(*) as cnt from Access.win:time(300 s) " +
		"where cmd = 'open' group by path")
	schema := NewSchema("Access", "path", "cmd")
	paths := []string{"/a", "/b", "/c", "/d", "/e"}
	i := 0
	return func() {
		now = time.Duration(i) * time.Millisecond
		ev := schema.Event(now)
		ev.SetStr(0, paths[i%len(paths)])
		ev.SetStr(1, "open")
		e.Insert(ev)
		i++
	}
}

// BenchmarkInsertGroupedTimeWindow measures groupedInsert. This is
// allocation-free.
func BenchmarkInsertGroupedTimeWindow(b *testing.B) {
	insert := groupedInsert()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insert()
	}
}

// twoKeyInsert returns one step of the judge's blocks statement: block
// reads grouped by path and block number over 256 groups, with a window
// short enough that every insert also expires the oldest record, so the
// step is a steady state of hash, chain walk, fold and unwind.
func twoKeyInsert() func() {
	now := time.Duration(0)
	e := New(func() time.Duration { return now })
	e.MustCompile("select path, block, count(*) as cnt from BlockAccess.win:time(1 s) group by path, block")
	schema := NewSchema("BlockAccess", "path", "block", "datanode")
	paths := make([]string, 64)
	for i := range paths {
		paths[i] = fmt.Sprintf("/user/data/part-%05d", i)
	}
	i := 0
	return func() {
		now = time.Duration(i) * time.Millisecond
		ev := schema.Event(now)
		ev.SetStr(0, paths[i%len(paths)])
		ev.SetNum(1, float64(i/len(paths)%4))
		ev.SetNum(2, float64(i%7))
		e.Insert(ev)
		i++
	}
}

// BenchmarkInsertTwoKeyGroups measures twoKeyInsert. This is
// allocation-free.
func BenchmarkInsertTwoKeyGroups(b *testing.B) {
	insert := twoKeyInsert()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insert()
	}
}

// churningInsert returns one step of a stream whose every key appears once:
// each insert opens a group and expires the oldest record, emptying its
// group, so the step is a steady state of group birth and death — a file
// read once in the window, as most are.
func churningInsert() func() {
	now := time.Duration(0)
	e := New(func() time.Duration { return now })
	e.MustCompile("select block, count(*) as cnt from BlockAccess.win:time(1 s) group by block")
	schema := NewSchema("BlockAccess", "block")
	i := 0
	return func() {
		now = time.Duration(i) * time.Millisecond
		ev := schema.Event(now)
		ev.SetNum(0, float64(i))
		e.Insert(ev)
		i++
	}
}

// BenchmarkInsertChurningGroups measures churningInsert. Emptied groups go
// to a free list the next new key takes them from, so this is
// allocation-free.
func BenchmarkInsertChurningGroups(b *testing.B) {
	insert := churningInsert()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insert()
	}
}

// filledWindow compiles query against a one-hour window holding n events
// spread over 20 groups.
func filledWindow(tb testing.TB, query string, n int) *Statement {
	tb.Helper()
	e := New(func() time.Duration { return time.Hour })
	st := e.MustCompile(query)
	schema := NewSchema("Access", "path", "cmd")
	for i := 0; i < n; i++ {
		ev := schema.Event(time.Hour - time.Duration(n-i)*time.Microsecond)
		ev.SetStr(0, "/f"+string(rune('a'+i%20)))
		ev.SetStr(1, "open")
		if err := e.Insert(ev); err != nil {
			tb.Fatal(err)
		}
	}
	return st
}

const eachRowQuery = "select path, count(*) as cnt from Access.win:time(3600 s) group by path"

// BenchmarkEachRowEvaluation measures the typed streaming evaluation the
// judge uses against windows of increasing event count. The cost tracks the
// group count (20 here), not the window size, so the sub-benchmarks should
// be flat.
func BenchmarkEachRowEvaluation(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("events=%d", n), func(b *testing.B) {
			st := filledWindow(b, eachRowQuery, n)
			var sink float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.EachRow(func(cols []Val) { sink += cols[1].Num() })
			}
			_ = sink
		})
	}
}

// TestHotPathAllocCeilings holds the benchmarks above to their allocation
// budgets on every `go test`: allocs/op is the one number they report that
// does not depend on the host.
func TestHotPathAllocCeilings(t *testing.T) {
	if n := testing.AllocsPerRun(1000, groupedInsert()); n != 0 {
		t.Errorf("InsertGroupedTimeWindow: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, twoKeyInsert()); n != 0 {
		t.Errorf("InsertTwoKeyGroups: %v allocs/op, want 0", n)
	}
	churn := churningInsert()
	for range 2000 { // fill the window: from here on every insert expires one
		churn()
	}
	if n := testing.AllocsPerRun(1000, churn); n != 0 {
		t.Errorf("InsertChurningGroups: %v allocs/op, want 0", n)
	}
	each := filledWindow(t, eachRowQuery, 10000)
	var sink float64
	if n := testing.AllocsPerRun(100, func() { each.EachRow(func(cols []Val) { sink += cols[1].Num() }) }); n != 0 {
		t.Errorf("EachRowEvaluation: %v allocs/op, want 0", n)
	}
}

func BenchmarkParseQuery(b *testing.B) {
	const q = "select path, count(*) as cnt from Access.win:time(60 s) " +
		"where cmd = 'open' group by path"
	for i := 0; i < b.N; i++ {
		if _, err := parseQuery(q); err != nil {
			b.Fatal(err)
		}
	}
}
