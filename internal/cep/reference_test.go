package cep

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// refRec is one inserted event as the brute-force reference keeps it: the
// R schema's three key slots and its where field.
type refRec struct {
	t    time.Duration
	keys [maxGroupKeyFields]Val
	skip Val
}

// refCase is one statement shape: the first nkeys of k0, k1, k2 as group
// keys, and whether it filters on skip = 0.
type refCase struct {
	nkeys int
	where bool
}

var refSchema = NewSchema("R", "k0", "k1", "k2", "skip")

var refCases = []refCase{{1, false}, {1, true}, {2, true}, {2, false}, {3, false}, {3, true}}

// query is c's statement over window w.
func (c refCase) query(w time.Duration) Query {
	q := Query{From: "R", Window: w, GroupBy: []string{"k0", "k1", "k2"}[:c.nkeys]}
	if c.where {
		q.Where, q.Equals = "skip", NumVal(0)
	}
	return q
}

// insert sends r through e as an R event.
func (r refRec) insert(t *testing.T, e *Engine) {
	t.Helper()
	ev := refSchema.Event(r.t)
	copy(ev.slots[:], r.keys[:])
	ev.slots[3] = r.skip
	if err := e.Insert(ev); err != nil {
		t.Fatal(err)
	}
}

// refRows recomputes from scratch what c's statement must output at now:
// keep the records no older than w (aged exactly w is still visible) whose
// skip is the number 0 when c filters, group them by their first nkeys keys
// under == (a NaN matches nothing, −0 matches 0) in first-surviving-record
// order, and emit each group's keys, as its latest record has them, then
// its record count. It also returns how many records the window
// holds. It shares no code with the engine.
func refRows(recs []refRec, c refCase, w, now time.Duration) ([][]Val, int) {
	idx := map[[maxGroupKeyFields]Val]int{}
	var keys [][maxGroupKeyFields]Val
	var count []int
	live := 0
	for _, r := range recs {
		if r.t < now-w || c.where && !(r.skip.k == kindNum && r.skip.num == 0) {
			continue
		}
		var k [maxGroupKeyFields]Val
		copy(k[:c.nkeys], r.keys[:c.nkeys])
		gi, ok := idx[k] // never ok for a NaN key
		if !ok {
			gi = len(keys)
			idx[k] = gi
			keys = append(keys, k)
			count = append(count, 0)
		}
		keys[gi] = k
		count[gi]++
		live++
	}
	var rows [][]Val
	for gi, k := range keys {
		rows = append(rows, append(slices.Clone(k[:c.nkeys]), NumVal(float64(count[gi]))))
	}
	return rows, live
}

// sameRows compares rows value by value through sameVal, so a NaN matches
// a NaN and −0 only −0.
func sameRows(a, b [][]Val) bool {
	return slices.EqualFunc(a, b, func(x, y []Val) bool { return slices.EqualFunc(x, y, sameVal) })
}

// TestAggregatesMatchBruteForce checks EachRow and the records retained
// against the recompute above over seeded random streams: one to three
// keys of mixed kind (strings, numbers, the string '1' beside the number 1,
// null, NaN, −0 beside 0), with and without a where clause whose field is also of mixed kind, whole-second
// clock steps (so records land exactly on the window's trailing edge),
// jumps that empty the window, and keys never seen before, which take the
// groups that expiry emptied off the statement's free list.
func TestAggregatesMatchBruteForce(t *testing.T) {
	nan, negZero := NumVal(math.NaN()), NumVal(math.Copysign(0, -1))
	k0 := []Val{StrVal("a"), StrVal("b"), StrVal("c"), StrVal("1"), NumVal(1), NumVal(2), {}, nan, negZero, NumVal(0)}
	k1 := []Val{StrVal("x"), NumVal(1), {}, negZero, NumVal(0)}
	k2 := []Val{StrVal("1"), NumVal(1)}
	skips := []Val{NumVal(0), NumVal(0), NumVal(1), StrVal("0"), {}}
	const w = 10 * time.Second
	evals, edge, emptied, recycled := 0, 0, 0, 0
	for ci, c := range refCases {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(ci)))
			var now time.Duration
			e := New(func() time.Duration { return now })
			st := compile(t, e, c.query(w))
			var recs []refRec
			check := func() {
				t.Helper()
				want, live := refRows(recs, c, w, now)
				got := rows(st)
				evals++
				for _, r := range recs {
					if now-r.t == w {
						edge++ // visible at the inclusive trailing edge
						break
					}
				}
				if live == 0 && len(recs) > 0 {
					emptied++
				}
				if !sameRows(got, want) {
					t.Fatalf("%+v seed %d at %v:\n got  %v\n want %v", c, seed, now, got, want)
				}
				if n := st.expiry.len(); n != live {
					t.Fatalf("%+v seed %d at %v: %d records retained, reference holds %d", c, seed, now, n, live)
				}
			}
			for i := 0; i < 250; i++ {
				switch p := rng.Intn(100); {
				case p < 4:
					now += 30 * time.Second // jump: the window empties
				case p < 60:
					now += time.Duration(rng.Intn(4)) * time.Second
				}
				r := refRec{t: now, skip: skips[rng.Intn(len(skips))]}
				r.keys = [maxGroupKeyFields]Val{k0[rng.Intn(len(k0))], k1[rng.Intn(len(k1))], k2[rng.Intn(len(k2))]}
				if rng.Intn(5) == 0 {
					r.keys[0] = StrVal(fmt.Sprint("new", i)) // a key never seen before
				}
				spare := st.free
				r.insert(t, e)
				if spare != nil && st.free != spare {
					recycled++
				}
				recs = append(recs, r)
				if rng.Intn(3) == 0 {
					check()
				}
			}
			now += time.Duration(rng.Intn(12)) * time.Second // evaluation alone must prune too
			check()
		}
	}
	if edge == 0 || emptied == 0 || recycled == 0 {
		t.Fatalf("stream mix is off: of %d evaluations, %d saw a record aged exactly the window, %d an emptied window; %d inserts took a recycled group",
			evals, edge, emptied, recycled)
	}
}

// TestRowOrderAcrossWideSequenceSpans: groups still come out in
// first-surviving-record order when the window's record sequence numbers
// span two and three bytes, so every digit of the radix sort that orders
// them decides some pair of the 3,000 groups.
func TestRowOrderAcrossWideSequenceSpans(t *testing.T) {
	for _, window := range []time.Duration{100 * time.Second, time.Hour} {
		rng := rand.New(rand.NewSource(7))
		var now time.Duration
		e := New(func() time.Duration { return now })
		c := refCases[0]
		st := compile(t, e, c.query(window))
		var recs []refRec
		for i := 0; i < 80000; i++ {
			if i%400 == 0 {
				now += time.Second
			}
			r := refRec{t: now, keys: [maxGroupKeyFields]Val{NumVal(float64(rng.Intn(3000)))}}
			r.insert(t, e)
			recs = append(recs, r)
		}
		want, _ := refRows(recs, c, window, now)
		if got := rows(st); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v window: %d rows out of first-surviving-record order (reference has %d)", window, len(got), len(want))
		}
	}
}
