package cep

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// refRec is one event that passed the where clause, as the brute-force
// reference keeps it.
type refRec struct {
	t         time.Duration
	k, v, tag Val
}

var errRefNonNumeric = errors.New("aggregate over non-numeric value")

// refRows recomputes from scratch what refEPL's statement must output: filter
// the retained records by the window rule, group them in first-surviving-
// record order, apply "having n > minCount", fold every aggregate by
// rescanning the group, stop at limit. It shares no code with the engine's
// running state.
func refRows(recs []refRec, w WindowSpec, now time.Duration, minCount, limit int) ([]Row, int, error) {
	var order []Val
	groups := map[Val][]refRec{}
	live := 0
	for i, r := range recs {
		if w.Kind == WindowTime && r.t < now-w.Dur || w.Kind == WindowLength && i < len(recs)-w.N {
			continue // aged exactly Dur is still visible
		}
		if _, seen := groups[r.k]; !seen {
			order = append(order, r.k)
		}
		groups[r.k] = append(groups[r.k], r)
		live++
	}
	var rows []Row
	for _, k := range order {
		g := groups[k]
		if len(g) <= minCount {
			continue
		}
		n, sum, lo, hi := 0, 0.0, math.Inf(1), math.Inf(-1)
		for _, r := range g {
			if r.v.IsNull() {
				continue
			}
			f, ok := r.v.numeric()
			if !ok {
				return nil, live, errRefNonNumeric
			}
			n, sum, lo, hi = n+1, sum+f, math.Min(lo, f), math.Max(hi, f)
		}
		first, last := g[0], g[len(g)-1]
		row := Row{"k": k.box(), "n": float64(len(g)), "c": float64(n), "s": sum, "a": nil, "lo": nil, "hi": nil,
			"f": first.v.box(), "l": last.v.box(), "ft": first.tag.box(), "lt": last.tag.box()}
		if n > 0 {
			row["a"], row["lo"], row["hi"] = sum/float64(n), lo, hi
		}
		rows = append(rows, row)
		if len(rows) == limit {
			break
		}
	}
	return rows, live, nil
}

func refEPL(window string, minCount, limit int) string {
	epl := "select k, count(*) as n, count(v) as c, sum(v) as s, avg(v) as a, min(v) as lo, max(v) as hi, " +
		"first(v) as f, last(v) as l, first(tag) as ft, last(tag) as lt " +
		"from R" + window + " where skip != true group by k"
	if minCount >= 0 {
		epl += fmt.Sprintf(" having n > %d", minCount)
	}
	if limit > 0 {
		epl += fmt.Sprintf(" limit %d", limit)
	}
	return epl
}

// TestAggregatesMatchBruteForce checks Rows() and WindowSize() against the
// recompute above over seeded random streams: every aggregate, on each
// window kind, with and without having and limit, with whole-second clock
// steps (so records land exactly on the window's trailing edge), jumps that
// empty the window, null and non-numeric values, and group keys of mixed
// type. Values are small integers so running sums are exact.
func TestAggregatesMatchBruteForce(t *testing.T) {
	schema := NewSchema("R", "k", "v", "tag", "skip")
	keys := []Val{StrVal("a"), StrVal("b"), StrVal("c"), StrVal("1"), NumVal(1), BoolVal(true), NullVal()}
	windows := []string{".win:time(10 s)", ".win:length(7)", ".win:keepall", ""}
	evals, errs, edge := 0, 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		for wi, window := range windows {
			minCount, limit := -1, 0 // no having, no limit
			if seed%2 == 0 {
				minCount = int(seed) % 3
			}
			if seed%3 == 0 {
				limit = 2
			}
			rng := rand.New(rand.NewSource(seed*10 + int64(wi)))
			var now time.Duration
			e := New(func() time.Duration { return now })
			st := e.MustCompile(refEPL(window, minCount, limit))
			w := st.Query().Window
			var recs []refRec
			check := func() {
				t.Helper()
				want, live, wantErr := refRows(recs, w, now, minCount, limit)
				got, err := st.Rows()
				evals++
				for _, r := range recs {
					if w.Kind == WindowTime && now-r.t == w.Dur {
						edge++ // visible at the inclusive trailing edge
						break
					}
				}
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("seed %d %q at %v: Rows error = %v, reference error = %v", seed, window, now, err, wantErr)
				}
				if err != nil {
					errs++
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %q at %v:\n got  %v\n want %v", seed, window, now, got, want)
				}
				if ws := st.WindowSize(); ws != live {
					t.Fatalf("seed %d %q at %v: WindowSize = %d, reference retains %d", seed, window, now, ws, live)
				}
			}
			for i := 0; i < 250; i++ {
				switch p := rng.Intn(100); {
				case p < 4:
					now += 30 * time.Second // jump: a time window empties
				case p < 60:
					now += time.Duration(rng.Intn(4)) * time.Second
				}
				ev := schema.Event(now)
				r := refRec{t: now, k: keys[rng.Intn(len(keys))], tag: StrVal(fmt.Sprint("t", i))}
				switch p := rng.Intn(100); {
				case p < 2:
					r.v = StrVal("oops") // numeric aggregates over this group now error
				case p < 5:
					r.v = BoolVal(true) // coerces to 1
				case p < 20: // left null: every aggregate skips it
				default:
					r.v = NumVal(float64(rng.Intn(21) - 10))
				}
				ev.slots[0], ev.slots[1], ev.slots[2] = r.k, r.v, r.tag
				skip := rng.Intn(100) < 15
				if skip {
					ev.SetBool(3, true)
				}
				if err := e.Insert(ev); err != nil {
					t.Fatal(err)
				}
				if !skip {
					recs = append(recs, r)
				}
				if rng.Intn(3) == 0 {
					check()
				}
			}
			now += time.Duration(rng.Intn(12)) * time.Second // evaluation alone must prune too
			check()
		}
	}
	if errs == 0 || errs > evals/2 || edge == 0 {
		t.Fatalf("stream mix is off: %d of %d evaluations errored, %d saw a record aged exactly Dur", errs, evals, edge)
	}
}

// TestRowOrderAcrossWideSequenceSpans: groups still come out in
// first-surviving-record order when the window's record sequence numbers
// span two and three bytes, so every digit of the radix sort that orders
// them decides some pair of the 3,000 groups.
func TestRowOrderAcrossWideSequenceSpans(t *testing.T) {
	schema := NewSchema("R", "k", "v", "tag", "skip")
	for _, window := range []string{".win:time(100 s)", ".win:keepall"} {
		rng := rand.New(rand.NewSource(7))
		var now time.Duration
		e := New(func() time.Duration { return now })
		st := e.MustCompile(refEPL(window, -1, 0))
		var recs []refRec
		for i := 0; i < 80000; i++ {
			if i%400 == 0 {
				now += time.Second
			}
			r := refRec{t: now, k: NumVal(float64(rng.Intn(3000))), v: NumVal(1), tag: StrVal("t")}
			ev := schema.Event(now)
			ev.slots[0], ev.slots[1], ev.slots[2] = r.k, r.v, r.tag
			if err := e.Insert(ev); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
		}
		want, _, _ := refRows(recs, st.Query().Window, now, -1, 0)
		if got := st.MustRows(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: %d rows out of first-surviving-record order (reference has %d)", window, len(got), len(want))
		}
	}
}
