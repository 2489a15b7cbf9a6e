package sim

import (
	"testing"
	"time"
)

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for k := 0; k < 1000; k++ {
			e.Schedule(time.Duration(k)*time.Millisecond, func() {})
		}
		e.Run()
	}
}

func BenchmarkNestedEventChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		n := 0
		var rec func()
		rec = func() {
			n++
			if n < 10000 {
				e.Schedule(time.Microsecond, rec)
			}
		}
		e.Schedule(0, rec)
		e.Run()
	}
}

func BenchmarkCancelHeavy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		evs := make([]*Event, 0, 1000)
		for k := 0; k < 1000; k++ {
			evs = append(evs, e.Schedule(time.Duration(k)*time.Millisecond, func() {}))
		}
		for _, ev := range evs[:900] {
			e.Cancel(ev)
		}
		e.Run()
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	z := NewZipf(NewRand(1), 1.1, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Draw()
	}
}

// deepCalendar returns one step of hot-small's shape: 60,000 pending
// events, each re-arming itself ahead when it fires so the depth holds, and
// one timer re-armed in place while pending, as the network fabric's is.
func deepCalendar() func() {
	const depth = 60000
	e := NewEngine()
	items := make([]Timed, depth)
	evs := make([]*Event, depth)
	for i := range items {
		ahead := time.Duration(i*7919%depth+1) * time.Microsecond
		var fn func()
		fn = func() { e.Reschedule(evs[i], ahead, fn) }
		items[i] = Timed{At: ahead, Fn: fn}
	}
	copy(evs, e.AtBatch(items))
	wake := func() {}
	timer := e.Schedule(time.Millisecond, wake)
	return func() {
		e.Step()
		e.Reschedule(timer, time.Millisecond, wake)
	}
}

// BenchmarkStepDeepCalendar measures deepCalendar. This is allocation-free.
func BenchmarkStepDeepCalendar(b *testing.B) {
	step := deepCalendar()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// tickerFiring returns one firing of a ticker: the Step that runs it, which
// re-arms the ticker's one event for the next period.
func tickerFiring() func() {
	e := NewEngine()
	NewTicker(e, time.Second, func(time.Duration) {})
	return func() { e.Step() }
}

// BenchmarkTickerFiring measures tickerFiring. This is allocation-free.
func BenchmarkTickerFiring(b *testing.B) {
	fire := tickerFiring()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fire()
	}
}

// TestStepAllocCeiling holds a steady-state Step plus the in-place
// Reschedule of a pending event, and a ticker firing, to zero allocations.
func TestStepAllocCeiling(t *testing.T) {
	if n := testing.AllocsPerRun(1000, deepCalendar()); n != 0 {
		t.Errorf("StepDeepCalendar: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, tickerFiring()); n != 0 {
		t.Errorf("TickerFiring: %v allocs/op, want 0", n)
	}
}
