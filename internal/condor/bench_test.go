package condor

import (
	"testing"
	"time"

	"erms/internal/sim"
)

// BenchmarkNegotiationCycle measures matching a queue of jobs against a
// machine pool through full negotiation cycles.
func BenchmarkNegotiationCycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		s := New(e, Config{NegotiationPeriod: time.Second})
		for m := 0; m < 18; m++ {
			s.Advertise("m"+string(rune('a'+m)), MachineAd{State: "active", FreeGB: float64(100 + m)}, 2)
		}
		for j := 0; j < 100; j++ {
			s.Submit(&Job{
				Name:         "job",
				Requirements: func(t *MachineAd) bool { return t.FreeGB > 50 },
				Rank:         func(t *MachineAd) float64 { return t.FreeGB },
				Run: func(m *Machine, done func(error)) {
					e.Schedule(2*time.Second, func() { done(nil) })
				},
			})
		}
		e.RunUntil(5 * time.Minute)
		s.Stop()
		if s.Stats().Completed != 100 {
			b.Fatalf("completed %d", s.Stats().Completed)
		}
	}
}
