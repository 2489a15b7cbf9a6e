package condor

import (
	"testing"
	"time"

	"erms/internal/sim"
)

// negotiationCycle returns one step of a saturated pool's steady state: 18
// two-slot machines busy with jobs that never finish, 100 more queued
// (immediate and idle class alike, all of which every machine's ad would
// accept), and each step a kicked negotiation plus a ticked one, both of
// which order the queue, scan every machine for a free slot and rebuild
// the queue unchanged.
func negotiationCycle(tb testing.TB) func() {
	e := sim.NewEngine()
	s := New(e, Config{NegotiationPeriod: time.Second})
	for m := 0; m < 18; m++ {
		s.Advertise("m"+string(rune('a'+m)), MachineAd{State: "active", FreeGB: float64(100 + m)}, 2)
	}
	for j := 0; j < 136; j++ {
		s.Submit(&Job{
			Name:         "job",
			Class:        Class(j % 2),
			Requirements: func(t *MachineAd) bool { return t.FreeGB > 50 },
			Rank:         func(t *MachineAd) float64 { return t.FreeGB },
			Run:          func(*Machine, func(error)) {}, // holds its slot for good
		})
	}
	e.RunFor(time.Second)
	if r, p := s.Running(), s.Pending(); r != 36 || p != 100 {
		tb.Fatalf("%d running, %d pending; want 36 and 100", r, p)
	}
	return func() {
		s.kickSoon()
		e.RunFor(time.Second)
	}
}

// BenchmarkNegotiationCycle measures negotiationCycle. This is
// allocation-free.
func BenchmarkNegotiationCycle(b *testing.B) {
	cycle := negotiationCycle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// TestNegotiationAllocCeiling holds negotiationCycle to zero allocations:
// the queue's order and the jobs left pending live in scratch the scheduler
// reuses, and the kick and the ticker re-arm one event each.
func TestNegotiationAllocCeiling(t *testing.T) {
	if n := testing.AllocsPerRun(200, negotiationCycle(t)); n != 0 {
		t.Errorf("NegotiationCycle: %v allocs/op, want 0", n)
	}
}
