package cep

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestTimeWindowTrailingEdgeInclusive pins the window's boundary semantics:
// an event aged exactly the window is still visible, so a periodic
// evaluator with period == window never loses the events of the instant it
// last ran. One tick past, the event is gone.
func TestTimeWindowTrailingEdgeInclusive(t *testing.T) {
	var now time.Duration
	e := New(func() time.Duration { return now })
	s := compile(t, e, Query{From: "S", Window: time.Minute, GroupBy: []string{"k"}})

	if err := e.Insert(sEvent(0, 0, "a")); err != nil {
		t.Fatal(err)
	}

	now = 60 * time.Second // aged exactly the window: still in it
	if got := text(rows(s)); got != "[a 1]" || s.expiry.len() != 1 {
		t.Fatalf("at exactly the window: rows %s with %d retained, want [a 1] with 1", got, s.expiry.len())
	}

	now = 60*time.Second + time.Nanosecond // one tick past: expired
	if got := rows(s); got != nil || s.expiry.len() != 0 {
		t.Fatalf("past the window: rows %v with %d retained, want none", got, s.expiry.len())
	}
}

// sameVal is identity of values, telling −0 from 0 and NaN from nothing: a
// NaN equals a NaN with the same bits.
func sameVal(a, b Val) bool {
	return a.k == b.k && a.str == b.str && math.Float64bits(a.num) == math.Float64bits(b.num)
}

// TestGroupIndexKeySemantics: Statement.groups finds a group by a hash of
// its key's live fields, but Go's == on groupKey stays the grouping rule,
// which a test-owned map[groupKey] applies directly. −0 and 0 form one
// group, showing the latest of the two; the string '1', the number 1 and
// null form three; each NaN forms its own, and leaves when its record
// expires. Each stream runs on a window that keeps it all and on one that
// keeps its last five records, and also with every key forced into four
// hash chains. A forced-collision random stream then checks chain insert,
// expiry unlink and row order against the brute-force reference of
// TestAggregatesMatchBruteForce.
func TestGroupIndexKeySemantics(t *testing.T) {
	const fourChains = ^uint64(3)
	nan := NumVal(math.NaN())
	stream := []Val{NumVal(math.Copysign(0, -1)), NumVal(0), StrVal("1"), NumVal(1), {},
		nan, nan, StrVal("1"), NumVal(0), nan, NumVal(1), StrVal("a"), StrVal("b"), StrVal("c"), StrVal("d"), StrVal("e")}
	for _, hashClear := range []uint64{0, fourChains} {
		for _, keep := range []int{0, 5} { // everything, the last five
			window := time.Hour
			if keep > 0 {
				window = time.Duration(keep-1) * time.Second // one record a second
			}
			var now time.Duration
			e := New(func() time.Duration { return now })
			st := compile(t, e, refCase{nkeys: 1}.query(window))
			st.hashClear = hashClear
			for i, k := range stream {
				now = time.Duration(i) * time.Second
				refRec{t: now, keys: [maxGroupKeyFields]Val{k}}.insert(t, e)
				live := stream[:i+1]
				if keep > 0 && len(live) > keep {
					live = live[len(live)-keep:]
				}
				// The reference: groups in first-appearance order, each
				// showing its latest key value.
				ref := map[groupKey]int{}
				var want [][]Val
				for _, v := range live {
					key := groupKey{n: 1}
					key.v[0] = v
					gi, ok := ref[key]
					if !ok {
						gi = len(want)
						ref[key] = gi
						want = append(want, []Val{{}, NumVal(0)})
					}
					want[gi][0], want[gi][1] = v, NumVal(want[gi][1].num+1)
				}
				got := rows(st)
				ok := len(got) == len(want)
				for j := 0; ok && j < len(got); j++ {
					ok = sameVal(got[j][0], want[j][0]) && got[j][1] == want[j][1]
				}
				if !ok {
					t.Fatalf("hashClear %#x window %s after %d inserts:\n got  %v\n want %v", hashClear, window, i+1, got, want)
				}
			}
			if keep == 0 && len(st.groups) > 4 && hashClear != 0 {
				t.Fatalf("%d chains with four forced", len(st.groups))
			}
		}
	}
	// Pinned outright, not only against the reference: after the first five
	// keys, {−0, 0}, '1', 1 and null; two NaNs later, two more groups.
	e := New(func() time.Duration { return 0 })
	st := compile(t, e, refCase{nkeys: 1}.query(time.Hour))
	for i, k := range stream[:7] {
		refRec{keys: [maxGroupKeyFields]Val{k}}.insert(t, e)
		if n := len(rows(st)); i == 4 && n != 4 || i == 6 && n != 6 {
			t.Fatalf("after %d keys: %d groups", i+1, n)
		}
	}

	keys := make([]Val, 0, 24)
	for i := 0; i < 12; i++ {
		keys = append(keys, NumVal(float64(i)), StrVal(fmt.Sprint("k", i)))
	}
	longest := 0
	for seed := int64(1); seed <= 6; seed++ {
		for _, w := range []time.Duration{10 * time.Second, time.Hour} {
			c := refCases[seed%int64(len(refCases))]
			rng := rand.New(rand.NewSource(seed))
			var now time.Duration
			e := New(func() time.Duration { return now })
			st := compile(t, e, c.query(w))
			st.hashClear = fourChains
			var recs []refRec
			for i := 0; i < 400; i++ {
				now += time.Duration(rng.Intn(3)) * time.Second / 2
				r := refRec{t: now, skip: NumVal(float64(rng.Intn(2)))}
				r.keys = [maxGroupKeyFields]Val{keys[rng.Intn(len(keys))], keys[rng.Intn(2)], keys[rng.Intn(3)]}
				r.insert(t, e)
				recs = append(recs, r)
				if i%7 != 0 {
					continue
				}
				want, live := refRows(recs, c, w, now)
				if got := rows(st); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d window %v after %d inserts:\n got  %v\n want %v", seed, w, i+1, got, want)
				}
				if n := st.expiry.len(); n != live {
					t.Fatalf("seed %d window %v: %d records retained, reference holds %d", seed, w, n, live)
				}
				if len(st.groups) > 4 {
					t.Fatalf("%d chains with four forced", len(st.groups))
				}
				for _, g := range st.groups {
					n := 0
					for ; g != nil; g = g.next {
						n++
					}
					longest = max(longest, n)
				}
			}
		}
	}
	if longest < 4 {
		t.Fatalf("longest hash chain %d: collisions were not forced", longest)
	}
}
