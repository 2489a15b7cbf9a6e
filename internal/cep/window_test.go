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
// an event aged exactly Dur is still visible, so a periodic evaluator with
// period == window never loses the events of the instant it last ran. One
// tick past Dur, the event is gone.
func TestTimeWindowTrailingEdgeInclusive(t *testing.T) {
	var now time.Duration
	e := New(func() time.Duration { return now })
	s := e.MustCompile("select count(*) as cnt from S.win:time(60 s)")

	ev := sSchema.Event(0)
	ev.SetNum(2, 1)
	if err := e.Insert(ev); err != nil {
		t.Fatal(err)
	}

	now = 60 * time.Second // aged exactly Dur: still in the window
	rows := s.MustRows()
	if len(rows) != 1 || rows[0].Num("cnt") != 1 {
		t.Fatalf("at exactly Dur: rows = %v, want one row with cnt 1", rows)
	}
	if ws := s.WindowSize(); ws != 1 {
		t.Fatalf("at exactly Dur: WindowSize = %d, want 1", ws)
	}

	now = 60*time.Second + time.Nanosecond // one tick past: expired
	if rows := s.MustRows(); rows != nil {
		t.Fatalf("past Dur: rows = %v, want nil", rows)
	}
	if ws := s.WindowSize(); ws != 0 {
		t.Fatalf("past Dur: WindowSize = %d, want 0", ws)
	}
}

// TestCloseDuringDispatch closes a statement while the engine is mid-Insert
// (from the clock callback a sibling statement's time-window prune makes).
// The closed statement must not receive the in-flight event, must report
// empty results, and the engine must keep delivering to the survivor.
func TestCloseDuringDispatch(t *testing.T) {
	var now time.Duration
	var victim *Statement
	closeNow := false
	e := New(func() time.Duration {
		if closeNow && victim != nil {
			victim.Close()
		}
		return now
	})
	// Compiled first, so it dispatches first and its prune triggers the
	// clock callback before the victim sees the event.
	survivor := e.MustCompile("select path, count(*) as cnt from S.win:time(60 s) group by path")
	victim = e.MustCompile("select path, count(*) as cnt from S.win:time(60 s) group by path")

	mustInsert := func(ts time.Duration) {
		t.Helper()
		if err := e.Insert(sEvent(ts, 1, "/a")); err != nil {
			t.Fatal(err)
		}
	}

	mustInsert(0)
	mustInsert(1 * time.Second)
	if got := victim.MustRows()[0].Num("cnt"); got != 2 {
		t.Fatalf("victim cnt before close = %v, want 2", got)
	}

	closeNow = true
	mustInsert(2 * time.Second) // victim closes mid-dispatch, misses this event
	closeNow = false

	if !victim.Closed() {
		t.Fatal("victim not closed")
	}
	if rows := victim.MustRows(); rows != nil {
		t.Fatalf("closed statement rows = %v, want nil", rows)
	}
	if ws := victim.WindowSize(); ws != 0 {
		t.Fatalf("closed statement WindowSize = %d, want 0", ws)
	}
	victim.Close() // double close stays a no-op

	mustInsert(3 * time.Second) // post-compaction dispatch still works
	if got := survivor.MustRows()[0].Num("cnt"); got != 4 {
		t.Fatalf("survivor cnt = %v, want 4", got)
	}
	if regs := e.statements["S"]; len(regs) != 1 || regs[0] != survivor {
		t.Fatalf("statement registry not compacted: %d entries", len(regs))
	}
}

// sameVal is identity of boxed row values, telling −0 from 0 and NaN from
// nothing: a NaN equals a NaN with the same bits.
func sameVal(a, b any) bool {
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return a == b
}

// TestGroupIndexKeySemantics: Statement.groups finds a group by a hash of
// its key's live fields, but Go's == on groupKey stays the grouping rule,
// which a test-owned map[groupKey] applies directly. −0 and 0 form one
// group; the string '1', the number 1 and true form three; each NaN forms
// its own, and leaves when its record expires. Each stream also runs with
// every key forced into four hash chains. A forced-collision random stream
// then checks chain insert, expiry unlink and row order against the
// brute-force reference of TestAggregatesMatchBruteForce.
func TestGroupIndexKeySemantics(t *testing.T) {
	schema := NewSchema("R", "k", "v", "tag", "skip")
	const fourChains = ^uint64(3)
	nan := NumVal(math.NaN())
	stream := []Val{NumVal(math.Copysign(0, -1)), NumVal(0), StrVal("1"), NumVal(1), BoolVal(true),
		nan, nan, StrVal("1"), NumVal(0), nan, NumVal(1), StrVal("a"), StrVal("b"), StrVal("c"), StrVal("d"), StrVal("e")}
	for _, hashClear := range []uint64{0, fourChains} {
		for _, w := range []int{0, 5} { // keepall, length(5)
			window := ".win:keepall"
			if w > 0 {
				window = fmt.Sprintf(".win:length(%d)", w)
			}
			e := New(func() time.Duration { return 0 })
			st := e.MustCompile("select k, count(*) as n from R" + window + " group by k")
			st.hashClear = hashClear
			for i, k := range stream {
				ev := schema.Event(0)
				ev.slots[0] = k
				if err := e.Insert(ev); err != nil {
					t.Fatal(err)
				}
				live := stream[:i+1]
				if w > 0 && len(live) > w {
					live = live[len(live)-w:]
				}
				// The reference: groups in first-appearance order, each
				// showing its latest key value.
				ref := map[groupKey]int{}
				var rows []Row
				for _, v := range live {
					key := groupKey{n: 1}
					key.v[0] = v
					gi, ok := ref[key]
					if !ok {
						gi = len(rows)
						ref[key] = gi
						rows = append(rows, Row{"n": 0.0})
					}
					rows[gi]["k"], rows[gi]["n"] = v.box(), rows[gi]["n"].(float64)+1
				}
				got := st.MustRows()
				ok := len(got) == len(rows)
				for j := 0; ok && j < len(got); j++ {
					ok = sameVal(got[j]["k"], rows[j]["k"]) && got[j]["n"] == rows[j]["n"]
				}
				if !ok {
					t.Fatalf("hashClear %#x %q after %d inserts:\n got  %v\n want %v", hashClear, window, i+1, got, rows)
				}
			}
			if w == 0 && len(st.groups) > 4 && hashClear != 0 {
				t.Fatalf("%d chains with four forced", len(st.groups))
			}
		}
	}
	// Pinned outright, not only against the reference: after the first five
	// keys, {−0, 0}, '1', 1 and true; three NaNs later, three more groups.
	e := New(func() time.Duration { return 0 })
	st := e.MustCompile("select k, count(*) as n from R.win:keepall group by k")
	for i, k := range stream[:7] {
		ev := schema.Event(0)
		ev.slots[0] = k
		e.Insert(ev)
		if n := len(st.MustRows()); i == 4 && n != 4 || i == 6 && n != 6 {
			t.Fatalf("after %d keys: %d groups", i+1, n)
		}
	}

	keys := make([]Val, 0, 24)
	for i := 0; i < 12; i++ {
		keys = append(keys, NumVal(float64(i)), StrVal(fmt.Sprint("k", i)))
	}
	longest := 0
	for seed := int64(1); seed <= 6; seed++ {
		for _, window := range []string{".win:time(10 s)", ".win:length(40)", ".win:keepall"} {
			rng := rand.New(rand.NewSource(seed))
			var now time.Duration
			e := New(func() time.Duration { return now })
			minCount, limit := int(seed%3)-1, int(seed%2)*5
			st := e.MustCompile(refEPL(window, minCount, limit))
			st.hashClear = fourChains
			var recs []refRec
			for i := 0; i < 400; i++ {
				now += time.Duration(rng.Intn(3)) * time.Second / 2
				r := refRec{t: now, k: keys[rng.Intn(len(keys))], v: NumVal(float64(rng.Intn(9) - 4)), tag: StrVal(fmt.Sprint("t", i))}
				ev := schema.Event(now)
				ev.slots[0], ev.slots[1], ev.slots[2] = r.k, r.v, r.tag
				if err := e.Insert(ev); err != nil {
					t.Fatal(err)
				}
				recs = append(recs, r)
				if i%7 != 0 {
					continue
				}
				want, live, _ := refRows(recs, st.Query().Window, now, minCount, limit)
				if got := st.MustRows(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %q after %d inserts:\n got  %v\n want %v", seed, window, i+1, got, want)
				}
				if ws := st.WindowSize(); ws != live {
					t.Fatalf("seed %d %q: WindowSize = %d, reference retains %d", seed, window, ws, live)
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
