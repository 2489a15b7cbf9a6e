// Package condor reimplements the slice of Condor that ERMS relies on: a
// job queue matched to typed machine ads by a periodic negotiator, a
// priority split between run-immediately jobs (replica increases, erasure
// decodes) and run-when-idle jobs (replica decreases, erasure encodes), a
// user log recording every job event for replay, and automatic rollback of
// failed jobs.
package condor

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"erms/internal/metrics"
	"erms/internal/sim"
	"erms/internal/trace"
)

// Class splits jobs by urgency, mirroring the paper: "It schedules the
// increasing replication tasks and erasure decoding tasks immediately,
// while run the decreasing replication tasks and erasure encoding tasks
// when the HDFS cluster is idle."
type Class int

const (
	// ClassImmediate jobs run at the next negotiation regardless of load.
	ClassImmediate Class = iota
	// ClassIdle jobs run only while the idle probe reports the cluster idle.
	ClassIdle
)

func (c Class) String() string {
	if c == ClassImmediate {
		return "immediate"
	}
	return "idle"
}

// State is a job's lifecycle state.
type State int

// Job states. Failed jobs whose Rollback ran become RolledBack.
const (
	StatePending State = iota
	StateRunning
	StateCompleted
	StateFailed
	StateRolledBack
	StateAborted
)

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateRunning:
		return "running"
	case StateCompleted:
		return "completed"
	case StateFailed:
		return "failed"
	case StateRolledBack:
		return "rolled-back"
	case StateAborted:
		return "aborted"
	}
	return "unknown"
}

// Job is one schedulable management task.
type Job struct {
	ID    int
	Name  string
	Class Class
	// Requirements admits a machine; nil matches any machine.
	Requirements func(*MachineAd) bool
	// Rank orders the admitted machines, higher first; nil ranks every
	// machine 0.
	Rank func(*MachineAd) float64
	// Run executes the task on the chosen machine. It must eventually call
	// done exactly once (possibly after simulated delays). A nil error
	// completes the job; otherwise the job fails and Rollback (if any) runs.
	Run func(m *Machine, done func(error))
	// Rollback undoes a failed job's partial effects.
	Rollback func()
	// Retry governs re-execution after failure or hang; the zero value
	// means one attempt, no timeout (the original semantics).
	Retry RetryPolicy
	// Notify, if set, fires once when the job reaches a terminal state
	// (Completed, Failed, RolledBack, or Aborted) — after rollback and
	// logging. Unlike wrapping Run's done, it also observes jobs whose
	// last attempt was reclaimed by the timeout watchdog.
	Notify func(j *Job)

	State      State
	SubmitTime time.Duration
	StartTime  time.Duration
	EndTime    time.Duration
	Err        error
	MachineID  string
	// Attempt counts executions started so far (1 on the first run).
	Attempt int
	// Span is the job's "condor.job" trace span, opened at Submit and
	// closed at the terminal state (0 when tracing is disabled).
	Span trace.SpanID
}

// MachineAd is what a machine advertises to the jobs that match against
// it: Condor's machine ClassAd, cut to the attributes a job reads.
type MachineAd struct {
	State  string // the datanode's state, e.g. "active"
	FreeGB float64
}

// Machine is an execution target advertised to the scheduler.
type Machine struct {
	Name  string
	Ad    MachineAd
	Slots int
	busy  int
}

// Free returns the number of available slots.
func (m *Machine) Free() int { return m.Slots - m.busy }

// EventKind labels user log entries.
type EventKind string

// User log event kinds (mirroring Condor's job event log).
const (
	EventSubmit    EventKind = "submit"
	EventExecute   EventKind = "execute"
	EventTerminate EventKind = "terminate"
	EventFail      EventKind = "fail"
	EventRollback  EventKind = "rollback"
	EventAbort     EventKind = "abort"
	// EventRetry records a failed attempt that will be re-executed after a
	// backoff; EventFail is only logged when attempts are exhausted.
	EventRetry EventKind = "retry"
	// EventTimeout records an attempt reclaimed by the hung-job watchdog.
	EventTimeout EventKind = "timeout"
)

// LogEvent is one user log record.
type LogEvent struct {
	Time    time.Duration
	JobID   int
	JobName string
	Kind    EventKind
	Detail  string
}

func (e LogEvent) String() string {
	return fmt.Sprintf("%012.3fs job=%d (%s) %s %s",
		e.Time.Seconds(), e.JobID, e.JobName, e.Kind, e.Detail)
}

// Scheduler is the negotiator plus queue.
type Scheduler struct {
	clock     sim.Clock
	machines  map[string]*Machine
	order     []*Machine // registration order, for determinism
	queue     []*Job
	byID      map[int]*Job
	running   int
	nextID    int
	idleProbe func() bool
	log       []LogEvent
	stats     Stats // incrementally maintained by logEvent
	ticker    *sim.Ticker
	kick      bool       // a same-instant negotiation is already scheduled
	kickEv    *sim.Event // that negotiation's event, re-armed by every kick
	kickFn    func()
	tracer    *trace.Tracer
	// Scratch for negotiate: the queue in negotiation order, and the jobs
	// it leaves pending.
	inOrder, rest []*Job
}

// SetTracer installs a span tracer: each job records a "condor.job" span
// from submit to terminal state, with one "condor.attempt" child per
// execution. Nil disables tracing.
func (s *Scheduler) SetTracer(tr *trace.Tracer) { s.tracer = tr }

// RegisterMetrics registers job-outcome counters and queue gauges into a
// metrics registry.
func (s *Scheduler) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("condor_jobs_submitted_total", func() float64 { return float64(s.stats.Submitted) })
	r.CounterFunc("condor_jobs_completed_total", func() float64 { return float64(s.stats.Completed) })
	r.CounterFunc("condor_jobs_failed_total", func() float64 { return float64(s.stats.Failed) })
	r.CounterFunc("condor_jobs_rolled_back_total", func() float64 { return float64(s.stats.RolledBack) })
	r.CounterFunc("condor_jobs_aborted_total", func() float64 { return float64(s.stats.Aborted) })
	r.CounterFunc("condor_attempts_retried_total", func() float64 { return float64(s.stats.Retried) })
	r.CounterFunc("condor_attempts_timed_out_total", func() float64 { return float64(s.stats.TimedOut) })
	r.GaugeFunc("condor_jobs_running", func() float64 { return float64(s.running) })
	r.GaugeFunc("condor_jobs_pending", func() float64 { return float64(s.Pending()) })
}

// Config tunes the scheduler.
type Config struct {
	// NegotiationPeriod is how often the negotiator matches pending jobs;
	// default 5s of virtual time.
	NegotiationPeriod time.Duration
	// IdleProbe reports whether the cluster is idle enough for ClassIdle
	// jobs; nil means always idle.
	IdleProbe func() bool
}

// New creates a scheduler scheduling through the given clock.
func New(clock sim.Clock, cfg Config) *Scheduler {
	if cfg.NegotiationPeriod <= 0 {
		cfg.NegotiationPeriod = 5 * time.Second
	}
	if cfg.IdleProbe == nil {
		cfg.IdleProbe = func() bool { return true }
	}
	s := &Scheduler{
		clock:     clock,
		machines:  make(map[string]*Machine),
		byID:      make(map[int]*Job),
		idleProbe: cfg.IdleProbe,
	}
	s.kickFn = func() {
		s.kick = false
		s.negotiate()
	}
	s.ticker = sim.NewTicker(clock, cfg.NegotiationPeriod, func(time.Duration) {
		s.negotiate()
	})
	return s
}

// Stop halts the negotiation cycle (end of simulation).
func (s *Scheduler) Stop() { s.ticker.Stop() }

// Advertise registers (commissions) a machine. Re-advertising an existing
// name updates its ad in place. This is the ClassAd mechanism the paper
// uses "to detect when datanodes are commissioned or decommissioned": a
// withdrawn node advertises a State its jobs' Requirements refuse.
func (s *Scheduler) Advertise(name string, ad MachineAd, slots int) *Machine {
	if slots <= 0 {
		slots = 1
	}
	if m, ok := s.machines[name]; ok {
		m.Ad = ad
		m.Slots = slots
		return m
	}
	m := &Machine{Name: name, Ad: ad, Slots: slots}
	s.machines[name] = m
	s.order = append(s.order, m)
	return m
}

// Machines returns the advertised machines in registration order.
func (s *Scheduler) Machines() []*Machine {
	return append([]*Machine(nil), s.order...)
}

// Submit queues a job and schedules an immediate negotiation for
// ClassImmediate work.
func (s *Scheduler) Submit(j *Job) *Job {
	if j.Run == nil {
		panic("condor: job without Run")
	}
	s.nextID++
	j.ID = s.nextID
	j.State = StatePending
	j.SubmitTime = s.clock.Now()
	s.byID[j.ID] = j
	s.queue = append(s.queue, j)
	if tr := s.tracer; tr.Enabled() {
		j.Span = tr.Begin("condor.job", tr.Current())
		tr.SetAttr(j.Span, "name", j.Name)
		tr.SetAttr(j.Span, "class", j.Class.String())
		tr.SetAttrInt(j.Span, "job", int64(j.ID))
	}
	s.logEvent(j, EventSubmit, j.Class.String())
	if j.Class == ClassImmediate {
		s.kickSoon()
	}
	return j
}

// Abort removes a pending job from the queue. Running jobs cannot be
// aborted (the simulation has no preemption); Abort returns false for them.
func (s *Scheduler) Abort(j *Job) bool {
	if j.State != StatePending {
		return false
	}
	j.State = StateAborted
	j.EndTime = s.clock.Now()
	s.logEvent(j, EventAbort, "")
	s.notify(j)
	return true
}

// notify closes the job's trace span and invokes its terminal-state
// callback, if any. The callback runs with the job span ambient so any
// follow-up work it launches parents under the job.
func (s *Scheduler) notify(j *Job) {
	s.tracer.SetAttr(j.Span, "state", j.State.String())
	s.tracer.End(j.Span)
	if j.Notify != nil {
		prev := s.tracer.Push(j.Span)
		j.Notify(j)
		s.tracer.Pop(prev)
	}
}

// kickSoon schedules a negotiation at the current instant (coalescing
// multiple submissions in the same event).
func (s *Scheduler) kickSoon() {
	if s.kick {
		return
	}
	s.kick = true
	s.kickEv = s.clock.Reschedule(s.kickEv, 0, s.kickFn)
}

// negotiate matches pending jobs to machines: immediate class first, FIFO
// within a class; machines chosen by job Rank, ties broken by most free
// slots then registration order.
func (s *Scheduler) negotiate() {
	idle := s.idleProbe()
	snapshot := len(s.queue)
	rest := s.rest[:0]
	for _, j := range s.pendingInOrder() {
		if j.State != StatePending {
			continue
		}
		if j.Class == ClassIdle && !idle {
			rest = append(rest, j)
			continue
		}
		m := s.bestMachine(j)
		if m == nil {
			rest = append(rest, j)
			continue
		}
		s.start(j, m)
	}
	// A start may run its job synchronously to a terminal state, whose
	// Notify may Submit new work re-entrantly — those jobs landed in
	// s.queue past the snapshot and must survive the rebuild.
	rest = append(rest, s.queue[snapshot:]...)
	// Rebuild queue with still-pending jobs, preserving order.
	s.queue = s.queue[:0]
	s.queue = append(s.queue, rest...)
	clear(rest)
	s.rest = rest[:0]
	clear(s.inOrder)
	s.inOrder = s.inOrder[:0]
}

// pendingInOrder returns the queue in negotiation order — immediate class
// first, then by ID — in scratch that the next call reuses.
func (s *Scheduler) pendingInOrder() []*Job {
	out := append(s.inOrder[:0], s.queue...)
	slices.SortStableFunc(out, func(a, b *Job) int {
		if ai := a.Class == ClassImmediate; ai != (b.Class == ClassImmediate) {
			if ai {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
	s.inOrder = out
	return out
}

func (s *Scheduler) bestMachine(j *Job) *Machine {
	var best *Machine
	var bestRank float64
	for _, m := range s.order {
		if m.Free() <= 0 || (j.Requirements != nil && !j.Requirements(&m.Ad)) {
			continue
		}
		rank := 0.0
		if j.Rank != nil {
			rank = j.Rank(&m.Ad)
		}
		if best == nil || rank > bestRank ||
			(rank == bestRank && m.Free() > best.Free()) {
			best = m
			bestRank = rank
		}
	}
	return best
}

// start launches one attempt of j on m. The done closure and the hung-job
// watchdog are per-attempt: after a timeout reclaims the machine, a
// straggling completion from the abandoned attempt is ignored rather than
// corrupting slot accounting (but a double-done within a live attempt
// still panics — that is a modeling bug).
func (s *Scheduler) start(j *Job, m *Machine) {
	j.State = StateRunning
	j.StartTime = s.clock.Now()
	j.MachineID = m.Name
	j.Attempt++
	m.busy++
	s.running++
	detail := "on " + m.Name
	if j.Attempt > 1 {
		detail = fmt.Sprintf("on %s (attempt %d)", m.Name, j.Attempt)
	}
	s.logEvent(j, EventExecute, detail)
	attemptSpan := s.tracer.Begin("condor.attempt", j.Span)
	if s.tracer.Enabled() {
		s.tracer.SetAttr(attemptSpan, "machine", m.Name)
		s.tracer.SetAttrInt(attemptSpan, "attempt", int64(j.Attempt))
	}
	finished := false
	timedOut := false
	var watchdog *sim.Event
	reclaim := func() {
		m.busy--
		s.running--
		if watchdog != nil {
			s.clock.Cancel(watchdog)
			watchdog = nil
		}
	}
	done := func(err error) {
		if timedOut {
			return // attempt already reclaimed by the watchdog
		}
		if finished {
			panic(fmt.Sprintf("condor: job %d completed twice", j.ID))
		}
		finished = true
		reclaim()
		if err == nil {
			j.EndTime = s.clock.Now()
			j.State = StateCompleted
			s.logEvent(j, EventTerminate, "ok")
			s.tracer.End(attemptSpan)
			s.notify(j)
			s.kickSoon()
			return
		}
		if s.tracer.Enabled() {
			s.tracer.SetAttr(attemptSpan, "error", err.Error())
			s.tracer.End(attemptSpan)
		}
		s.afterFailure(j, err)
	}
	if t := j.Retry.Timeout; t > 0 {
		watchdog = s.clock.Schedule(t, func() {
			if finished {
				return
			}
			timedOut = true
			watchdog = nil
			reclaim()
			s.logEvent(j, EventTimeout, fmt.Sprintf("after %s on %s", t, m.Name))
			if s.tracer.Enabled() {
				s.tracer.SetAttr(attemptSpan, "error", "timeout")
				s.tracer.End(attemptSpan)
			}
			s.afterFailure(j, fmt.Errorf("condor: job %d hung for %s on %s", j.ID, t, m.Name))
		})
	}
	prev := s.tracer.Push(attemptSpan)
	j.Run(m, done)
	s.tracer.Pop(prev)
}

// afterFailure routes a failed or timed-out attempt: schedule a retry with
// exponential backoff while attempts remain, otherwise declare the job
// failed and run its rollback.
func (s *Scheduler) afterFailure(j *Job, err error) {
	j.Err = err
	if j.Attempt < j.Retry.attempts() {
		backoff := j.Retry.backoffFor(j.Attempt)
		j.State = StatePending
		s.logEvent(j, EventRetry,
			fmt.Sprintf("attempt %d failed (%v); retry in %s", j.Attempt, err, backoff))
		s.clock.Schedule(backoff, func() {
			if j.State != StatePending {
				return // aborted while backing off
			}
			s.queue = append(s.queue, j)
			if j.Class == ClassImmediate {
				s.kickSoon()
			}
		})
		return
	}
	j.EndTime = s.clock.Now()
	j.State = StateFailed
	s.logEvent(j, EventFail, err.Error())
	if j.Rollback != nil {
		j.Rollback()
		j.State = StateRolledBack
		s.logEvent(j, EventRollback, "")
	}
	s.notify(j)
	s.kickSoon()
}

// Running returns the number of jobs currently executing.
func (s *Scheduler) Running() int { return s.running }

// Pending returns the number of jobs awaiting execution — queued for the
// negotiator or sitting out a retry backoff.
func (s *Scheduler) Pending() int {
	n := 0
	for _, j := range s.byID {
		if j.State == StatePending {
			n++
		}
	}
	return n
}

// Job returns the job with the given ID, or nil.
func (s *Scheduler) Job(id int) *Job { return s.byID[id] }

// Jobs returns every submitted job in ID order.
func (s *Scheduler) Jobs() []*Job {
	out := make([]*Job, 0, len(s.byID))
	for _, j := range s.byID {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

func (s *Scheduler) logEvent(j *Job, kind EventKind, detail string) {
	s.log = append(s.log, LogEvent{
		Time: s.clock.Now(), JobID: j.ID, JobName: j.Name, Kind: kind, Detail: detail,
	})
	switch kind {
	case EventSubmit:
		s.stats.Submitted++
	case EventTerminate:
		s.stats.Completed++
	case EventFail:
		s.stats.Failed++
	case EventRollback:
		s.stats.RolledBack++
	case EventAbort:
		s.stats.Aborted++
	case EventRetry:
		s.stats.Retried++
	case EventTimeout:
		s.stats.TimedOut++
	}
}

// Log returns the user log (all job events, in order) — the paper's "we
// can replay all operations and analyze them".
func (s *Scheduler) Log() []LogEvent { return s.log }

// Stats summarizes job outcomes from the user log. Retried and TimedOut
// count attempts, not jobs; Failed counts only final failures (attempts
// exhausted).
type Stats struct {
	Submitted, Completed, Failed, RolledBack, Aborted int
	Retried, TimedOut                                 int
}

// Stats returns outcome counts (maintained incrementally as events are
// logged).
func (s *Scheduler) Stats() Stats { return s.stats }
