package condor

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"erms/internal/sim"
)

// Property: under arbitrary interleavings of submissions (mixed classes,
// some failing, some aborted) the scheduler's books always balance and
// every machine's slot count returns to free.
func TestQuickBooksBalance(t *testing.T) {
	type op struct {
		Class    uint8 // even: immediate, odd: idle
		Fails    bool
		Abort    bool
		DelaySec uint8
	}
	f := func(ops []op, idleFlips uint8) bool {
		e := sim.NewEngine()
		idle := true
		s := New(e, Config{
			NegotiationPeriod: 2 * time.Second,
			IdleProbe:         func() bool { return idle },
		})
		machines := []*Machine{
			s.Advertise("m1", machineAd("active"), 2),
			s.Advertise("m2", machineAd("active"), 1),
		}
		// Idle flips partway through so idle-class jobs experience both
		// states.
		e.Schedule(time.Duration(idleFlips%20)*time.Second, func() { idle = !idle })
		e.Schedule(200*time.Second, func() { idle = true })
		var jobs []*Job
		for i, o := range ops {
			o := o
			class := ClassImmediate
			if o.Class%2 == 1 {
				class = ClassIdle
			}
			j := &Job{
				Name:  "j",
				Class: class,
				Run: func(m *Machine, done func(error)) {
					d := time.Duration(o.DelaySec%5) * time.Second
					e.Schedule(d, func() {
						if o.Fails {
							done(errors.New("boom"))
						} else {
							done(nil)
						}
					})
				},
				Rollback: func() {},
			}
			s.Submit(j)
			jobs = append(jobs, j)
			if o.Abort {
				s.Abort(j)
			}
			_ = i
		}
		e.RunUntil(400 * time.Second)
		s.Stop()
		e.Run()
		st := s.Stats()
		if st.Submitted != len(ops) {
			return false
		}
		if st.Submitted != st.Completed+st.Failed+st.Aborted+s.Pending() {
			return false
		}
		if s.Running() != 0 {
			return false
		}
		for _, m := range machines {
			if m.Free() != m.Slots {
				return false
			}
		}
		// Failed jobs with rollbacks are rolled back.
		for _, j := range jobs {
			if j.State == StateFailed {
				return false // rollback should have moved it on
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
