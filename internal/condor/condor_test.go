package condor

import (
	"errors"
	"testing"
	"time"

	"erms/internal/sim"
)

func machineAd(state string) MachineAd { return MachineAd{State: state} }

func instantJob(name string, results *[]string) *Job {
	return &Job{
		Name: name,
		Run: func(m *Machine, done func(error)) {
			*results = append(*results, name+"@"+m.Name)
			done(nil)
		},
	}
}

func TestImmediateJobRunsWithoutWaitingForCycle(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{NegotiationPeriod: time.Hour})
	s.Advertise("m1", machineAd("active"), 1)
	var got []string
	s.Submit(instantJob("j1", &got))
	e.RunUntil(time.Second) // far less than the negotiation period
	if len(got) != 1 || got[0] != "j1@m1" {
		t.Fatalf("got = %v", got)
	}
}

func TestIdleJobWaitsForIdleCluster(t *testing.T) {
	e := sim.NewEngine()
	idle := false
	s := New(e, Config{NegotiationPeriod: time.Second, IdleProbe: func() bool { return idle }})
	s.Advertise("m1", machineAd("active"), 1)
	var got []string
	j := instantJob("encode", &got)
	j.Class = ClassIdle
	s.Submit(j)
	e.RunUntil(10 * time.Second)
	if len(got) != 0 {
		t.Fatal("idle job ran while cluster busy")
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d", s.Pending())
	}
	idle = true
	e.RunUntil(12 * time.Second)
	if len(got) != 1 {
		t.Fatal("idle job did not run after cluster went idle")
	}
}

func TestImmediateBeforeIdleOrdering(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{NegotiationPeriod: time.Second})
	var got []string
	// Single slot forces serialization; submit idle first, immediate second.
	s.Advertise("m1", machineAd("active"), 1)
	idleJob := instantJob("idle", &got)
	idleJob.Class = ClassIdle
	// Delay both jobs' execution so ordering is observable: both pend until
	// the first negotiation tick.
	s.Stop() // replace ticker behaviour: submit while no machine? simpler:
	// re-create scheduler to keep ticker; instead use fresh engine below.
	e2 := sim.NewEngine()
	s2 := New(e2, Config{NegotiationPeriod: time.Second})
	got = nil
	idle2 := instantJob("idle", &got)
	idle2.Class = ClassIdle
	s2.Submit(idle2)
	s2.Submit(instantJob("imm", &got))
	s2.Advertise("m1", machineAd("active"), 1) // machine appears after submit
	e2.RunUntil(5 * time.Second)
	if len(got) != 2 || got[0] != "imm@m1" {
		t.Fatalf("got = %v, want immediate first", got)
	}
}

func TestRequirementsRestrictPlacement(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{NegotiationPeriod: time.Second})
	s.Advertise("active1", machineAd("active"), 1)
	s.Advertise("standby1", machineAd("standby"), 1)
	var got []string
	j := instantJob("replicate", &got)
	j.Requirements = func(t *MachineAd) bool { return t.State == "standby" }
	s.Submit(j)
	e.RunUntil(2 * time.Second)
	if len(got) != 1 || got[0] != "replicate@standby1" {
		t.Fatalf("got = %v", got)
	}
}

// TestRankPrefersBetterMachine runs the job ad ERMS ships (active nodes
// only, most free space first) through the negotiator: Rank picks among the
// machines Requirements admits, a tie goes to the machine advertised first,
// and a machine whose ad has no State never matches.
func TestRankPrefersBetterMachine(t *testing.T) {
	type machine struct {
		name  string
		state string // "" advertises no State
		free  float64
	}
	for _, tc := range []struct {
		name     string
		machines []machine
		want     string // "" = the job stays pending
	}{
		{"unequal FreeGB", []machine{{"small", "active", 10}, {"big", "active", 500}}, "place@big"},
		{"tied FreeGB", []machine{{"first", "active", 50}, {"second", "active", 50}}, "place@first"},
		{"roomier machine is standby", []machine{{"small", "active", 10}, {"big", "standby", 500}}, "place@small"},
		{"roomier machine has no State", []machine{{"small", "active", 10}, {"big", "", 500}}, "place@small"},
		{"no machine advertises State", []machine{{"a", "", 10}, {"b", "", 500}}, ""},
		{"every machine is down", []machine{{"a", "down", 10}, {"b", "down", 500}}, ""},
	} {
		e := sim.NewEngine()
		s := New(e, Config{NegotiationPeriod: time.Second})
		for _, m := range tc.machines {
			s.Advertise(m.name, MachineAd{State: m.state, FreeGB: m.free}, 1)
		}
		var got []string
		j := instantJob("place", &got)
		j.Requirements = func(t *MachineAd) bool { return t.State == "active" }
		j.Rank = func(t *MachineAd) float64 { return t.FreeGB }
		s.Submit(j)
		e.RunUntil(2 * time.Second)
		if tc.want == "" {
			if len(got) != 0 || s.Pending() != 1 {
				t.Errorf("%s: ran %v, pending %d; want the job to wait", tc.name, got, s.Pending())
			}
			continue
		}
		if len(got) != 1 || got[0] != tc.want {
			t.Errorf("%s: got %v, want %s", tc.name, got, tc.want)
		}
	}
}

func TestSlotLimitsAndQueueing(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{NegotiationPeriod: time.Second})
	s.Advertise("m1", machineAd("active"), 2)
	var running, maxRunning int
	mkJob := func(name string) *Job {
		return &Job{
			Name: name,
			Run: func(m *Machine, done func(error)) {
				running++
				if running > maxRunning {
					maxRunning = running
				}
				e.Schedule(3*time.Second, func() {
					running--
					done(nil)
				})
			},
		}
	}
	for i := 0; i < 5; i++ {
		s.Submit(mkJob("j"))
	}
	e.RunUntil(30 * time.Second)
	if maxRunning != 2 {
		t.Fatalf("max concurrent = %d, want 2 (slot limit)", maxRunning)
	}
	if s.Stats().Completed != 5 {
		t.Fatalf("completed = %d", s.Stats().Completed)
	}
}

func TestFailureTriggersRollback(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{NegotiationPeriod: time.Second})
	s.Advertise("m1", machineAd("active"), 1)
	rolledBack := false
	j := &Job{
		Name:     "willfail",
		Run:      func(m *Machine, done func(error)) { done(errors.New("disk full")) },
		Rollback: func() { rolledBack = true },
	}
	s.Submit(j)
	e.RunUntil(2 * time.Second)
	if !rolledBack {
		t.Fatal("rollback did not run")
	}
	if j.State != StateRolledBack {
		t.Fatalf("state = %v", j.State)
	}
	st := s.Stats()
	if st.Failed != 1 || st.RolledBack != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFailureWithoutRollbackStaysFailed(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{NegotiationPeriod: time.Second})
	s.Advertise("m1", machineAd("active"), 1)
	j := &Job{
		Name: "nofallback",
		Run:  func(m *Machine, done func(error)) { done(errors.New("boom")) },
	}
	s.Submit(j)
	e.RunUntil(2 * time.Second)
	if j.State != StateFailed || j.Err == nil {
		t.Fatalf("state = %v err = %v", j.State, j.Err)
	}
}

func TestAbortPendingJob(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{NegotiationPeriod: time.Second})
	var got []string
	j := s.Submit(instantJob("j", &got)) // no machines yet: stays pending
	if !s.Abort(j) {
		t.Fatal("abort failed")
	}
	s.Advertise("m1", machineAd("active"), 1)
	e.RunUntil(5 * time.Second)
	if len(got) != 0 {
		t.Fatal("aborted job ran")
	}
	if s.Abort(j) {
		t.Fatal("double abort succeeded")
	}
	if s.Stats().Aborted != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestUserLogReplayAndOrder(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{NegotiationPeriod: time.Second})
	s.Advertise("m1", machineAd("active"), 1)
	var got []string
	s.Submit(instantJob("j1", &got))
	e.RunUntil(2 * time.Second)
	var kinds []EventKind
	s.Replay(func(ev LogEvent) { kinds = append(kinds, ev.Kind) })
	want := []EventKind{EventSubmit, EventExecute, EventTerminate}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	if s.Log()[0].String() == "" {
		t.Fatal("log event should render")
	}
}

func TestFIFOWithinClass(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{NegotiationPeriod: time.Second})
	var got []string
	for _, n := range []string{"a", "b", "c"} {
		s.Submit(instantJob(n, &got))
	}
	s.Advertise("m1", machineAd("active"), 1)
	e.RunUntil(5 * time.Second)
	if len(got) != 3 || got[0] != "a@m1" || got[1] != "b@m1" || got[2] != "c@m1" {
		t.Fatalf("got = %v, want FIFO", got)
	}
}

func TestDoubleDonePanics(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{NegotiationPeriod: time.Second})
	s.Advertise("m1", machineAd("active"), 1)
	s.Submit(&Job{
		Name: "broken",
		Run: func(m *Machine, done func(error)) {
			done(nil)
			defer func() {
				if recover() == nil {
					t.Error("second done() did not panic")
				}
			}()
			done(nil)
		},
	})
	e.RunUntil(time.Second)
}

func TestSubmitWithoutRunPanics(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Submit(&Job{Name: "empty"})
}

func TestStateStrings(t *testing.T) {
	for st, want := range map[State]string{
		StatePending: "pending", StateRunning: "running", StateCompleted: "completed",
		StateFailed: "failed", StateRolledBack: "rolled-back", StateAborted: "aborted",
		State(99): "unknown",
	} {
		if st.String() != want {
			t.Fatalf("State(%d) = %q", st, st.String())
		}
	}
	if ClassImmediate.String() != "immediate" || ClassIdle.String() != "idle" {
		t.Fatal("class strings")
	}
}

// TestResubmitFromNotifySurvivesNegotiation pins a negotiator re-entrancy
// fix: a job whose Notify submits follow-up work synchronously (the repair
// pipeline does this to drain its throttled queue) runs inside the
// negotiation loop when its own Run fails synchronously, and the follow-up
// submission used to be wiped by the post-loop queue rebuild — pending in
// byID but never queued, so it hung forever.
func TestResubmitFromNotifySurvivesNegotiation(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{NegotiationPeriod: time.Hour})
	s.Advertise("m1", machineAd("active"), 1)
	ran := false
	j := &Job{
		Name:  "failer",
		Class: ClassImmediate,
		Run:   func(m *Machine, done func(error)) { done(errors.New("no target")) },
		Notify: func(*Job) {
			s.Submit(&Job{
				Name:  "followup",
				Class: ClassImmediate,
				Run:   func(m *Machine, done func(error)) { ran = true; done(nil) },
			})
		},
	}
	s.Submit(j)
	e.RunUntil(time.Minute)
	if j.State != StateFailed {
		t.Fatalf("failer state = %v", j.State)
	}
	if !ran {
		t.Fatal("job submitted from Notify never ran")
	}
}

// TestReadvertiseUpdatesInPlace: advertising a known name replaces that
// machine's ad and slots, keeps its registration, and lists it once — the
// way a datanode is withdrawn from matchmaking is a State its jobs refuse.
func TestReadvertiseUpdatesInPlace(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{NegotiationPeriod: time.Second})
	m := s.Advertise("m1", machineAd("active"), 1)
	if again := s.Advertise("m1", machineAd("down"), 2); again != m {
		t.Fatal("re-advertising registered a second machine")
	}
	if ms := s.Machines(); len(ms) != 1 || ms[0].Ad.State != "down" || ms[0].Slots != 2 {
		t.Fatalf("machines after re-advertise: %+v", ms)
	}
	var got []string
	j := instantJob("j", &got)
	j.Requirements = func(t *MachineAd) bool { return t.State == "active" }
	s.Submit(j)
	e.RunUntil(3 * time.Second)
	if len(got) != 0 {
		t.Fatalf("job ran on a withdrawn machine: %v", got)
	}
	s.Advertise("m1", machineAd("active"), 2)
	e.RunUntil(5 * time.Second)
	if len(got) != 1 || got[0] != "j@m1" {
		t.Fatalf("got = %v after the machine came back", got)
	}
}
