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

const (
	rowsQuery = "select path, count(*) as cnt, max(__time) as last " +
		"from Access.win:time(3600 s) group by path having cnt > 5"
	eachRowQuery = "select path, count(*) as cnt from Access.win:time(3600 s) " +
		"group by path having cnt > 5"
)

// BenchmarkRowsEvaluation measures Rows() against windows of increasing
// event count. The cost tracks the group count (20 here), not the window
// size, so the sub-benchmarks should be flat.
func BenchmarkRowsEvaluation(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("events=%d", n), func(b *testing.B) {
			st := filledWindow(b, rowsQuery, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Rows(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEachRowEvaluation measures the typed streaming consumer the
// judge uses: no Row maps, columns read as Vals.
func BenchmarkEachRowEvaluation(b *testing.B) {
	st := filledWindow(b, eachRowQuery, 10000)
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.EachRow(func(cols []Val) { sink += cols[1].Num() }); err != nil {
			b.Fatal(err)
		}
	}
	_ = sink
}

// TestHotPathAllocCeilings holds the three benchmarks above to their
// allocation budgets on every `go test`: allocs/op is the one number they
// report that does not depend on the host.
func TestHotPathAllocCeilings(t *testing.T) {
	if n := testing.AllocsPerRun(1000, groupedInsert()); n != 0 {
		t.Errorf("InsertGroupedTimeWindow: %v allocs/op, want 0", n)
	}
	rows := filledWindow(t, rowsQuery, 10000)
	if n := testing.AllocsPerRun(100, func() { rows.Rows() }); n > 128 {
		t.Errorf("RowsEvaluation: %v allocs/op, ceiling 128", n)
	}
	each := filledWindow(t, eachRowQuery, 10000)
	var sink float64
	if n := testing.AllocsPerRun(100, func() { each.EachRow(func(cols []Val) { sink += cols[1].Num() }) }); n > 22 {
		t.Errorf("EachRowEvaluation: %v allocs/op, ceiling 22", n)
	}
}

func BenchmarkParseQuery(b *testing.B) {
	const q = "select path, count(*) as cnt, avg(bytes) as ab from Access.win:time(60 s) " +
		"where cmd = 'open' and path != '/tmp' group by path having cnt > 10"
	for i := 0; i < b.N; i++ {
		if _, err := ParseQuery(q); err != nil {
			b.Fatal(err)
		}
	}
}
