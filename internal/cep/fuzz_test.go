package cep

import (
	"testing"
	"time"
)

// FuzzParseQuery: the parser must never panic, and any statement Compile
// accepts must insert, expire and evaluate without panicking. Errors are
// fine anywhere. The seeds keep the syntax the language no longer has
// beside the shape it runs.
func FuzzParseQuery(f *testing.F) {
	f.Add("select path, count(*) as cnt from Access.win:time(60 s) where cmd = 'open' group by path having cnt > 10 order by cnt desc limit 3")
	f.Add("select x from S")
	f.Add("select count(*) from S.win:length(5)")
	f.Add("select a + b * -c from S where not (a = 1 or b != 2)")
	f.Add("select 'str' from S.win:keepall limit 1")
	f.Add("")
	f.Add("select from where")
	// Every aggregate over every slot kind.
	f.Add("select b, count(*) as n, count(d), sum(a), avg(a), min(a), max(a), first(c), last(d) " +
		"from S.win:time(60 s) where a >= 0 and not c group by b having n > 0 and max(a) / n < 9 limit 2")
	f.Add("select a, b, c, min(b), max(__time), -sum(a) from S.win:length(3) group by a, b, c")
	f.Add("select avg(c), first(a), sum(d) from S having nosuch = 1 or count(*) > 2")
	// Shapes Compile rejects.
	f.Add("select a, b from S where a > 1 limit 2")
	f.Add("select sum(a + 1) from S")
	f.Add("select count(*) from S group by a + 1")
	f.Add("select count(*) from S group by a, b, c, d")
	f.Add("select a, count(*) as n from S group by a order by n")
	// The shape it runs.
	f.Add("select b, count(*) as n from S.win:time(60 s) where a = 1 group by b")
	f.Add("select a, b, c, count(*) from S.win:time(500 ms) where b = 's' group by a, b, c")
	f.Add("select count(*), d as dd from S.win:time(1 min) group by d")
	f.Fuzz(func(t *testing.T, src string) {
		var now time.Duration
		eng := New(func() time.Duration { return now })
		st, err := eng.Compile(src)
		if err != nil {
			return
		}
		// a numeric, b string, c either, d never set; a is unset now and then.
		schema := NewSchema(st.q.from, "a", "b", "c", "d")
		each := func() {
			st.EachRow(func(cols []Val) {
				for _, v := range cols {
					_, _, _ = v.Num(), v.Str(), v.IsNull()
				}
			})
		}
		for i := 0; i < 8; i++ {
			now += 25 * time.Second // a win:time(60 s) expires records mid-run
			ev := schema.Event(now)
			if i%3 != 2 {
				ev.SetNum(0, float64(i%4))
			}
			ev.SetStr(1, string(rune('s'+i%2)))
			if i%2 == 0 {
				ev.SetNum(2, 1)
			} else {
				ev.SetStr(2, "1")
			}
			_ = eng.Insert(ev)
			if i%4 == 3 {
				each()
			}
		}
		each()
		now += time.Hour
		each()
	})
}
