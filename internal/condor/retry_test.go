package condor

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"erms/internal/sim"
)

// flakyJob fails the first n attempts, then succeeds. It records the sim
// time of every execution so backoff spacing is observable.
func flakyJob(e *sim.Engine, failFirst int, times *[]time.Duration) *Job {
	attempts := 0
	return &Job{
		Name: "flaky",
		Run: func(m *Machine, done func(error)) {
			attempts++
			*times = append(*times, e.Now())
			if attempts <= failFirst {
				done(errors.New("transient"))
				return
			}
			done(nil)
		},
	}
}

// TestRetryExponentialBackoff: a job failing twice before succeeding is
// re-queued with doubling delays, is counted as retried, and ends
// Completed with the machine slot free.
func TestRetryExponentialBackoff(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{NegotiationPeriod: time.Hour})
	s.Advertise("m1", machineAd("active"), 1)
	var times []time.Duration
	j := flakyJob(e, 2, &times)
	j.Retry = RetryPolicy{MaxAttempts: 5, Backoff: 15 * time.Second}
	s.Submit(j)
	e.RunUntil(5 * time.Minute)

	if j.State != StateCompleted {
		t.Fatalf("state = %s", j.State)
	}
	if j.Attempt != 3 {
		t.Fatalf("attempts = %d, want 3", j.Attempt)
	}
	if len(times) != 3 {
		t.Fatalf("executions = %v", times)
	}
	// Backoff 15s after the first failure, 30s after the second.
	if gap := times[1] - times[0]; gap < 15*time.Second || gap > 16*time.Second {
		t.Fatalf("first retry gap = %s, want ~15s", gap)
	}
	if gap := times[2] - times[1]; gap < 30*time.Second || gap > 31*time.Second {
		t.Fatalf("second retry gap = %s, want ~30s", gap)
	}
	st := s.Stats()
	if st.Retried != 2 {
		t.Fatalf("Stats.Retried = %d, want 2", st.Retried)
	}
	if st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRetryExhaustionRollsBack: when every attempt fails, the job fails
// once (one EventFail), Rollback runs, and the machine is reusable.
func TestRetryExhaustionRollsBack(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{NegotiationPeriod: time.Hour})
	s.Advertise("m1", machineAd("active"), 1)
	rolledBack := false
	notified := 0
	j := &Job{
		Name:     "doomed",
		Run:      func(m *Machine, done func(error)) { done(errors.New("permanent")) },
		Rollback: func() { rolledBack = true },
		Retry:    RetryPolicy{MaxAttempts: 3, Backoff: 10 * time.Second},
		Notify:   func(*Job) { notified++ },
	}
	s.Submit(j)
	e.RunUntil(5 * time.Minute)

	if j.State != StateRolledBack {
		t.Fatalf("state = %s", j.State)
	}
	if !rolledBack {
		t.Fatal("rollback did not run")
	}
	if notified != 1 {
		t.Fatalf("Notify fired %d times, want 1 (terminal only)", notified)
	}
	fails, retries := 0, 0
	for _, ev := range s.Log() {
		switch ev.Kind {
		case EventFail:
			fails++
		case EventRetry:
			retries++
		}
	}
	if fails != 1 || retries != 2 {
		t.Fatalf("log has %d fails / %d retries, want 1/2", fails, retries)
	}
	// The slot must be free for the next job.
	var got []string
	s.Submit(instantJob("next", &got))
	e.RunFor(time.Minute)
	if len(got) != 1 {
		t.Fatal("machine slot leaked after exhausted retries")
	}
}

// TestTimeoutReclaimsMachine: a hung job (never calls done) is reclaimed
// by the watchdog, retried, and the machine serves other work meanwhile.
func TestTimeoutReclaimsMachine(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{NegotiationPeriod: time.Hour})
	s.Advertise("m1", machineAd("active"), 1)
	attempts := 0
	var lateDone func(error)
	j := &Job{
		Name: "hung",
		Run: func(m *Machine, done func(error)) {
			attempts++
			if attempts == 1 {
				lateDone = done // hang: never call done in this attempt
				return
			}
			done(nil)
		},
		Retry: RetryPolicy{MaxAttempts: 2, Backoff: 5 * time.Second, Timeout: time.Minute},
	}
	s.Submit(j)
	e.RunUntil(10 * time.Minute)

	if j.State != StateCompleted {
		t.Fatalf("state = %s", j.State)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d", attempts)
	}
	st := s.Stats()
	if st.TimedOut != 1 || st.Retried != 1 {
		t.Fatalf("TimedOut=%d Retried=%d, want 1/1", st.TimedOut, st.Retried)
	}
	// A done() arriving after the watchdog reclaimed the attempt must be
	// ignored, not panic or double-complete.
	if lateDone == nil {
		t.Fatal("first attempt never ran")
	}
	lateDone(nil)
	if got := s.Stats().Completed; got != 1 {
		t.Fatalf("late done double-completed: %d", got)
	}
}

// TestPendingCountsBackingOffJobs: a job waiting out its backoff is
// StatePending but not in the queue slice; Pending() must still count it
// (the manager's books-balance invariant depends on this).
func TestPendingCountsBackingOffJobs(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{NegotiationPeriod: time.Hour})
	s.Advertise("m1", machineAd("active"), 1)
	var times []time.Duration
	j := flakyJob(e, 1, &times)
	j.Retry = RetryPolicy{MaxAttempts: 2, Backoff: time.Minute}
	s.Submit(j)
	e.RunUntil(30 * time.Second) // mid-backoff
	if j.State != StatePending {
		t.Fatalf("state mid-backoff = %s", j.State)
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1 during backoff", got)
	}
	e.RunUntil(5 * time.Minute)
	if j.State != StateCompleted {
		t.Fatalf("state = %s", j.State)
	}
}

// TestAbortDuringBackoffSticks: aborting a job while it waits out a
// backoff must not let the requeue timer resurrect it.
func TestAbortDuringBackoffSticks(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{NegotiationPeriod: time.Hour})
	s.Advertise("m1", machineAd("active"), 1)
	var times []time.Duration
	j := flakyJob(e, 99, &times)
	j.Retry = RetryPolicy{MaxAttempts: 10, Backoff: time.Minute}
	s.Submit(j)
	e.RunUntil(30 * time.Second) // first attempt failed, backing off
	s.Abort(j)
	e.RunUntil(20 * time.Minute)
	if j.State != StateAborted {
		t.Fatalf("state = %s", j.State)
	}
	if len(times) != 1 {
		t.Fatalf("aborted job ran %d times", len(times))
	}
}

// TestBackoffFor pins the backoff arithmetic.
func TestBackoffFor(t *testing.T) {
	p := RetryPolicy{Backoff: 15 * time.Second, MaxBackoff: time.Minute}
	want := []time.Duration{15 * time.Second, 30 * time.Second, time.Minute, time.Minute}
	for i, w := range want {
		if got := p.backoffFor(i + 1); got != w {
			t.Fatalf("backoffFor(%d) = %s, want %s", i+1, got, w)
		}
	}
	if got := (RetryPolicy{}).backoffFor(3); got != 0 {
		t.Fatalf("zero policy backoff = %s", got)
	}
}

// TestUserLogReplayRoundTrip: replaying the user log alone reconstructs
// every job's final state — including jobs that retried, timed out,
// rolled back, or were aborted.
func TestUserLogReplayRoundTrip(t *testing.T) {
	e := sim.NewEngine()
	// IdleProbe pinned false keeps idle-class jobs pending so one can be
	// aborted deterministically.
	s := New(e, Config{NegotiationPeriod: time.Hour, IdleProbe: func() bool { return false }})
	s.Advertise("m1", machineAd("active"), 2)
	s.Advertise("m2", machineAd("active"), 2)

	var times []time.Duration
	ok := flakyJob(e, 1, &times) // retries once, then completes
	ok.Retry = RetryPolicy{MaxAttempts: 3, Backoff: 5 * time.Second}
	s.Submit(ok)

	doomed := &Job{
		Name:     "doomed",
		Run:      func(m *Machine, done func(error)) { done(errors.New("no")) },
		Rollback: func() {},
		Retry:    RetryPolicy{MaxAttempts: 2, Backoff: 5 * time.Second},
	}
	s.Submit(doomed)

	hung := &Job{
		Name:  "hung",
		Run:   func(m *Machine, done func(error)) {},
		Retry: RetryPolicy{MaxAttempts: 1, Timeout: 30 * time.Second},
	}
	s.Submit(hung)

	aborted := &Job{Name: "zombie", Class: ClassIdle, Run: func(m *Machine, done func(error)) {}}
	s.Submit(aborted)
	e.Schedule(2*time.Second, func() { s.Abort(aborted) })

	e.RunUntil(10 * time.Minute)

	want := map[int]State{
		ok.ID:      StateCompleted,
		doomed.ID:  StateRolledBack,
		hung.ID:    StateFailed,
		aborted.ID: StateAborted,
	}
	for id, w := range want {
		if got := s.Job(id).State; got != w {
			t.Fatalf("job %d state = %s, want %s", id, got, w)
		}
	}
	got := ReconstructStates(s.Log())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %v\nwant %v", got, want)
	}
}
