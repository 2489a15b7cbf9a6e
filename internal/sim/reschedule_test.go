package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// timerScript drives a set of re-armable timers and a crowd of one-shot
// events through a seeded interleaving of arm / cancel / step, and returns
// the firing log. Timers are re-armed with Reschedule when reuse is set and
// with Cancel+Schedule otherwise; the two logs must be identical. The script
// re-arms timers that are pending, canceled, already fired, dropped from the
// calendar by compaction (cancel storms compact it about 14 times a seed), and — from inside their own
// callback — firing right now.
func timerScript(seed int64, reuse bool) string {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	var log strings.Builder
	timers := make([]*Event, 8)
	var arm func(i int, d time.Duration)
	arm = func(i int, d time.Duration) {
		rearm := rng.Intn(3) == 0 // decided at arm time so both modes draw alike
		again := time.Duration(rng.Intn(5)) * time.Millisecond
		fn := func() {
			fmt.Fprintf(&log, "t%d@%d ", i, e.Now())
			if rearm {
				arm(i, again) // the event that is firing re-arms itself
			}
		}
		if reuse {
			timers[i] = e.Reschedule(timers[i], d, fn)
		} else {
			e.Cancel(timers[i])
			timers[i] = e.Schedule(d, fn)
		}
	}
	var crowd []*Event
	for step := 0; step < 4000; step++ {
		switch rng.Intn(8) {
		case 0, 1:
			// Few distinct delays, so timers tie with the crowd and each other.
			arm(rng.Intn(len(timers)), time.Duration(rng.Intn(6)-1)*time.Millisecond)
		case 2:
			e.Cancel(timers[rng.Intn(len(timers))])
		case 3, 4:
			for k := rng.Intn(200); k > 0; k-- {
				id := len(crowd)
				crowd = append(crowd, e.Schedule(time.Duration(rng.Intn(40))*time.Millisecond,
					func() { fmt.Fprintf(&log, "c%d ", id) }))
			}
		case 5:
			// Cancel storms push canceled timers out through compaction.
			for k := rng.Intn(600); k > 0 && len(crowd) > 0; k-- {
				e.Cancel(crowd[len(crowd)-1-rng.Intn(min(len(crowd), 1500))])
			}
		default:
			for k := rng.Intn(30); k > 0; k-- {
				e.Step()
			}
		}
		fmt.Fprintf(&log, "p%d ", e.Pending())
	}
	e.Run()
	fmt.Fprintf(&log, "end@%d fired %d", e.Now(), e.Fired())
	return log.String()
}

func TestRescheduleMatchesCancelSchedule(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		want, got := timerScript(seed, false), timerScript(seed, true)
		if got != want {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: logs diverge at byte %d:\n  cancel+schedule …%s\n  reschedule      …%s",
				seed, i, want[max(0, i-60):min(len(want), i+60)], got[max(0, i-60):min(len(got), i+60)])
		}
		if !strings.Contains(got, "t0@") {
			t.Fatalf("seed %d: timers never fired", seed)
		}
	}
}

// TestRescheduleStates names the four states one by one: the Event pointer
// is reused, Canceled() clears, Pending stays balanced, and the re-armed
// event fires after everything already scheduled for its instant.
func TestRescheduleStates(t *testing.T) {
	e := NewEngine()
	var got []string
	note := func(s string) func() { return func() { got = append(got, s) } }

	ev := e.Reschedule(nil, time.Second, note("fresh"))
	if ev == nil || e.Pending() != 1 {
		t.Fatalf("nil event not allocated: %v, pending %d", ev, e.Pending())
	}
	e.Schedule(2*time.Second, note("other"))
	if e.Reschedule(ev, 2*time.Second, note("moved")) != ev || e.Pending() != 2 {
		t.Fatalf("pending event not reused in place; pending %d", e.Pending())
	}
	e.Cancel(ev)
	if e.Pending() != 1 || !ev.Canceled() {
		t.Fatalf("after cancel: pending %d, canceled %v", e.Pending(), ev.Canceled())
	}
	e.Reschedule(ev, 2*time.Second, note("revived"))
	if e.Pending() != 2 || ev.Canceled() || ev.Time() != 2*time.Second {
		t.Fatalf("after revive: pending %d, canceled %v, at %v", e.Pending(), ev.Canceled(), ev.Time())
	}
	e.Run()
	e.Reschedule(ev, -time.Second, note("after firing")) // negative delay clamps to now
	e.Run()
	if s := strings.Join(got, ","); s != "other,revived,after firing" {
		t.Fatalf("fired %q", s)
	}
	if e.Pending() != 0 || len(e.queue) != 0 {
		t.Fatalf("calendar not empty: pending %d, queue %d", e.Pending(), len(e.queue))
	}
}

// A delay that overflows the clock must panic where the caller wrote it, as
// At does for a time in the past — not later, inside Step, as "time went
// backwards".
func TestRescheduleOverflowPanicsAtCallSite(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(time.Second, func() {})
	e.RunUntil(10)
	for name, fn := range map[string]func(){
		"overflow":     func() { e.Reschedule(ev, math.MaxInt64, func() {}) },
		"overflow nil": func() { e.Reschedule(nil, math.MaxInt64, func() {}) },
		"nil callback": func() { e.Reschedule(ev, time.Second, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
	if ev.Time() != time.Second || e.Pending() != 1 {
		t.Fatalf("a rejected Reschedule moved the event: at %v, pending %d", ev.Time(), e.Pending())
	}
	e.Reschedule(ev, math.MaxInt64-10, func() {}) // exactly the horizon is legal
	if ev.Time() != math.MaxInt64 {
		t.Fatalf("event at %v, want the clock's horizon", ev.Time())
	}
}
