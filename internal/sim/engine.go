// Package sim provides a deterministic discrete-event simulation kernel.
//
// All ERMS subsystems — the network fabric, HDFS, the Condor scheduler, the
// CEP engine — run on a single Engine. Virtual time is a time.Duration
// measured from the start of the simulation. Events scheduled for the same
// instant fire in scheduling order (FIFO), which together with seeded random
// sources makes every run byte-for-byte reproducible.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Event is a scheduled callback. It is returned by the scheduling methods so
// callers can cancel it before it fires.
type Event struct {
	at       time.Duration
	index    int // calendar slot; -1 once removed
	canceled bool
	fn       func()
}

// Time returns the virtual time at which the event fires (or would have
// fired, if canceled).
func (e *Event) Time() time.Duration { return e.at }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now      time.Duration
	queue    calendar
	seq      uint64
	fired    uint64
	canceled int // canceled events still sitting in the queue
}

// NewEngine returns an Engine with the clock at zero and an empty calendar.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Fired returns the number of events executed so far (useful in tests and
// for progress reporting).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of live events currently scheduled. Canceled
// events waiting to be discarded from the calendar are not counted.
func (e *Engine) Pending() int { return len(e.queue) - e.canceled }

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero: the event fires at the current time, after all events already
// scheduled for that time.
func (e *Engine) Schedule(delay time.Duration, fn func()) *Event {
	return e.Reschedule(nil, delay, fn)
}

// At runs fn at absolute virtual time t. Scheduling in the past is an error
// that indicates a broken model, so it panics.
func (e *Engine) At(t time.Duration, fn func()) *Event {
	return e.arm(&Event{index: -1}, t, fn)
}

// Reschedule moves ev to fire fn after delay and returns it. In firing order
// it is exactly Cancel(ev) followed by Schedule(delay, fn) — a fresh sequence
// number, so ev fires after everything already scheduled for that instant —
// but the Event is reused: ev may be pending, canceled, already fired or the
// event firing right now, so a timer re-armed for its owner's whole lifetime
// (the network fabric's) costs one allocation, made here when ev is nil.
// Like At it panics at the call site: a delay that overflows the clock lands
// in the past.
func (e *Engine) Reschedule(ev *Event, delay time.Duration, fn func()) *Event {
	if ev == nil {
		ev = &Event{index: -1}
	}
	return e.arm(ev, e.now+max(delay, 0), fn)
}

// arm files ev, new or reused, to run fn at t under a fresh sequence number.
func (e *Engine) arm(ev *Event, t time.Duration, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	if ev.canceled && ev.index >= 0 {
		e.canceled-- // still queued: it counts as pending again
	}
	ev.at, ev.fn, ev.canceled = t, fn, false
	s := slot{at: t, seq: e.seq, ev: ev}
	e.seq++
	if ev.index >= 0 {
		e.queue.fix(ev.index, s)
	} else {
		e.queue.push(s)
	}
	return ev
}

// Timed pairs an absolute firing time with a callback, for AtBatch.
type Timed struct {
	At time.Duration
	Fn func()
}

// AtBatch schedules many events in one calendar operation. Sequence numbers
// are assigned in slice order, so the firing order is identical to calling At
// for each element in turn; the heap is rebuilt once (O(n)) instead of
// sifting per event (O(n log n)). Workload preloading at the million-file
// scale is the intended caller.
func (e *Engine) AtBatch(items []Timed) []*Event {
	evs := make([]*Event, len(items))
	for i, it := range items {
		if it.At < e.now {
			panic(fmt.Sprintf("sim: scheduling event at %v before now %v", it.At, e.now))
		}
		if it.Fn == nil {
			panic("sim: nil event callback")
		}
		ev := &Event{at: it.At, fn: it.Fn, index: len(e.queue)}
		e.queue = append(e.queue, slot{at: it.At, seq: e.seq, ev: ev})
		e.seq++
		evs[i] = ev
	}
	e.queue.init()
	return evs
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op. The event stays in the calendar and is
// discarded when popped, or swept out in bulk once canceled entries dominate
// the queue.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	if !ev.canceled && ev.index >= 0 {
		e.canceled++ // still queued: it no longer counts as pending
	}
	ev.canceled = true
	ev.fn = nil
	e.maybeCompact()
}

// maybeCompact removes canceled events from the calendar once they make up
// more than half of a large queue. Pop order depends only on (at, seq), both
// immutable, so rebuilding the heap without the dead entries cannot change
// which live event fires next.
func (e *Engine) maybeCompact() {
	if len(e.queue) < 1024 || e.canceled*2 <= len(e.queue) {
		return
	}
	live := e.queue[:0]
	for _, s := range e.queue {
		if s.ev.canceled {
			s.ev.index = -1
			continue
		}
		s.ev.index = len(live)
		live = append(live, s)
	}
	clear(e.queue[len(live):])
	e.queue = live
	e.canceled = 0
	e.queue.init()
}

// Step executes the next event, advancing the clock to its timestamp. It
// returns false if the calendar is empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		if ev.canceled {
			e.canceled--
			continue
		}
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		fn := ev.fn
		ev.fn = nil
		e.fired++
		fn()
		return true
	}
	return false
}

// Run executes events until the calendar is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t and then advances the clock
// to exactly t. Events scheduled for later remain pending.
func (e *Engine) RunUntil(t time.Duration) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, e.now))
	}
	for {
		ev := e.peek()
		if ev == nil || ev.at > t {
			break
		}
		e.Step()
	}
	e.now = t
}

// RunFor runs the simulation for d of virtual time from the current instant.
func (e *Engine) RunFor(d time.Duration) {
	e.RunUntil(e.now + d)
}

func (e *Engine) peek() *Event {
	for len(e.queue) > 0 {
		ev := e.queue[0].ev
		if !ev.canceled {
			return ev
		}
		e.queue.pop()
		e.canceled--
	}
	return nil
}

// NextEventTime returns the timestamp of the next pending event and true, or
// zero and false if the calendar is empty.
func (e *Engine) NextEventTime() (time.Duration, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// slot is one calendar entry. It carries its event's (at, seq) key inline,
// so ordering the calendar never dereferences an Event.
type slot struct {
	at  time.Duration
	seq uint64
	ev  *Event
}

// before orders slots by (time, sequence), so same-time events fire in the
// order they were scheduled. Sequence numbers are unique: the order is total.
func (s slot) before(o slot) bool {
	return s.at < o.at || s.at == o.at && s.seq < o.seq
}

// calendar is a 4-ary min-heap of slots: the children of slot i are
// 4i+1 … 4i+4. Each queued event's index names its slot. Sifts move a hole
// and write the moving slot once, at its final position. A calendar under a
// quarter full halves its backing array on pop, so one that a preload filled
// and the run drained does not pin its peak.
type calendar []slot

// minCalendarCap is the capacity below which the calendar never shrinks.
const minCalendarCap = 256

func (h *calendar) push(s slot) {
	*h = append(*h, s)
	h.up(len(*h)-1, s)
}

// pop removes and returns the earliest event.
func (h *calendar) pop() *Event {
	q := *h
	ev := q[0].ev
	ev.index = -1
	n := len(q) - 1
	last := q[n]
	q[n] = slot{}
	q = q[:n]
	if n > 0 {
		q.down(0, last)
	}
	if c := cap(q); c > minCalendarCap && n < c/4 {
		q = append(make(calendar, 0, c/2), q...)
	}
	*h = q
	return ev
}

// fix puts s, the new key of the event in slot i, where it belongs.
func (h calendar) fix(i int, s slot) {
	if i > 0 && s.before(h[(i-1)/4]) {
		h.up(i, s)
	} else {
		h.down(i, s)
	}
}

// up moves the hole at i toward the root until s fits there.
func (h calendar) up(i int, s slot) {
	for i > 0 {
		p := (i - 1) / 4
		if !s.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = i
		i = p
	}
	h[i] = s
	s.ev.index = i
}

// down moves the hole at i toward the leaves until s fits there.
func (h calendar) down(i int, s slot) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, n); j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(s) {
			break
		}
		h[i] = h[m]
		h[i].ev.index = i
		i = m
	}
	h[i] = s
	s.ev.index = i
}

// init establishes heap order over slots whose indexes are already set.
func (h calendar) init() {
	if len(h) < 2 {
		return
	}
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		h.down(i, h[i])
	}
}

// Seconds converts a float64 number of seconds into a time.Duration,
// saturating instead of overflowing for very large values.
func Seconds(s float64) time.Duration {
	if math.IsInf(s, 1) || s > math.MaxInt64/float64(time.Second) {
		return math.MaxInt64
	}
	if s < 0 {
		return 0
	}
	return time.Duration(s * float64(time.Second))
}

// ToSeconds converts a duration to float64 seconds.
func ToSeconds(d time.Duration) float64 { return d.Seconds() }
