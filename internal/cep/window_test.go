package cep

import (
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
