package cep

import (
	"testing"
	"time"
)

// FuzzParseQuery: the EPL parser and planner must never panic, and any
// statement Compile accepts must insert, expire, evaluate and close without
// panicking. Errors are fine anywhere.
func FuzzParseQuery(f *testing.F) {
	f.Add("select path, count(*) as cnt from Access.win:time(60 s) where cmd = 'open' group by path having cnt > 10 order by cnt desc limit 3")
	f.Add("select x from S")
	f.Add("select count(*) from S.win:length(5)")
	f.Add("select a + b * -c from S where not (a = 1 or b != 2)")
	f.Add("select 'str' from S.win:keepall limit 1")
	f.Add("")
	f.Add("select from where")
	// Every aggregate over every slot kind, on each window.
	f.Add("select b, count(*) as n, count(d), sum(a), avg(a), min(a), max(a), first(c), last(d) " +
		"from S.win:time(60 s) where a >= 0 and not c group by b having n > 0 and max(a) / n < 9 limit 2")
	f.Add("select a, b, c, min(b), max(__time), -sum(a) from S.win:length(3) group by a, b, c")
	f.Add("select avg(c), first(a), sum(d) from S having nosuch = 1 or count(*) > 2")
	// One per shape Compile rejects.
	f.Add("select a, b from S where a > 1 limit 2")
	f.Add("select sum(a + 1) from S")
	f.Add("select count(*) from S group by a + 1")
	f.Add("select count(*) from S group by a, b, c, d")
	f.Add("select a, count(*) as n from S group by a order by n")
	f.Fuzz(func(t *testing.T, src string) {
		var now time.Duration
		eng := New(func() time.Duration { return now })
		st, err := eng.Compile(src)
		if err != nil {
			return
		}
		// a numeric, b string, c bool, d never set; a is unset now and then.
		schema := NewSchema(st.Query().From, "a", "b", "c", "d")
		for i := 0; i < 8; i++ {
			now += 25 * time.Second // a win:time(60 s) expires records mid-run
			ev := schema.Event(now)
			if i%3 != 2 {
				ev.SetNum(0, float64(i%4))
			}
			ev.SetStr(1, string(rune('s'+i%2)))
			ev.SetBool(2, i%2 == 0)
			_ = eng.Insert(ev)
			if i%4 == 3 {
				_, _ = st.Rows()
			}
		}
		_, _ = st.Rows()
		_ = st.EachRow(func(cols []Val) {
			for _, v := range cols {
				_, _, _ = v.Num(), v.Str(), v.Bool()
			}
		})
		_ = st.WindowSize()
		now += time.Hour
		_, _ = st.Rows()
		st.Close()
		_ = eng.Insert(schema.Event(now))
		_, _ = st.Rows()
	})
}
