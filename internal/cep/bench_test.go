package cep

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkInsertGroupedTimeWindow measures the judge-shaped hot path: a
// typed event through a where filter into a grouped time window. This is
// allocation-free.
func BenchmarkInsertGroupedTimeWindow(b *testing.B) {
	now := time.Duration(0)
	e := New(func() time.Duration { return now })
	e.MustCompile("select path, count(*) as cnt from Access.win:time(300 s) " +
		"where cmd = 'open' group by path")
	schema := NewSchema("Access", "path", "cmd")
	paths := []string{"/a", "/b", "/c", "/d", "/e"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = time.Duration(i) * time.Millisecond
		ev := schema.Event(now)
		ev.SetStr(0, paths[i%len(paths)])
		ev.SetStr(1, "open")
		e.Insert(ev)
	}
}

// fillWindow loads n events spread over 20 groups, all inside the window.
func fillWindow(b *testing.B, e *Engine, n int) {
	b.Helper()
	schema := NewSchema("Access", "path", "cmd")
	for i := 0; i < n; i++ {
		ev := schema.Event(time.Hour - time.Duration(n-i)*time.Microsecond)
		ev.SetStr(0, "/f"+string(rune('a'+i%20)))
		ev.SetStr(1, "open")
		if err := e.Insert(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRowsEvaluation measures Rows() against windows of increasing
// event count. The cost tracks the group count (20 here), not the window
// size, so the sub-benchmarks should be flat.
func BenchmarkRowsEvaluation(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("events=%d", n), func(b *testing.B) {
			now := time.Hour
			e := New(func() time.Duration { return now })
			st := e.MustCompile("select path, count(*) as cnt, max(__time) as last " +
				"from Access.win:time(3600 s) group by path having cnt > 5")
			fillWindow(b, e, n)
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
	now := time.Hour
	e := New(func() time.Duration { return now })
	st := e.MustCompile("select path, count(*) as cnt from Access.win:time(3600 s) " +
		"group by path having cnt > 5")
	fillWindow(b, e, 10000)
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

func BenchmarkParseQuery(b *testing.B) {
	const q = "select path, count(*) as cnt, avg(bytes) as ab from Access.win:time(60 s) " +
		"where cmd = 'open' and path != '/tmp' group by path having cnt > 10"
	for i := 0; i < b.N; i++ {
		if _, err := ParseQuery(q); err != nil {
			b.Fatal(err)
		}
	}
}
