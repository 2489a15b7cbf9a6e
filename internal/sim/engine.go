// Package sim provides a deterministic discrete-event simulation kernel.
//
// All ERMS subsystems — the network fabric, HDFS, the Condor scheduler, the
// CEP engine — run on a single Engine. Virtual time is a time.Duration
// measured from the start of the simulation. Events scheduled for the same
// instant fire in scheduling order (FIFO), which together with seeded random
// sources makes every run byte-for-byte reproducible.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Event is a scheduled callback. It is returned by the scheduling methods so
// callers can cancel it before it fires.
type Event struct {
	at       time.Duration
	seq      uint64
	index    int // heap index; -1 once removed
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
	queue    eventHeap
	seq      uint64
	running  bool
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
func (e *Engine) Pending() int { return e.queue.Len() - e.canceled }

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
	ev.at, ev.seq, ev.fn, ev.canceled = t, e.seq, fn, false
	e.seq++
	if ev.index >= 0 {
		heap.Fix(&e.queue, ev.index)
	} else {
		heap.Push(&e.queue, ev)
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
// for each element in turn; the heap is rebuilt once with heap.Init (O(n))
// instead of sifting per event (O(n log n)). Workload preloading at the
// million-file scale is the intended caller.
func (e *Engine) AtBatch(items []Timed) []*Event {
	evs := make([]*Event, len(items))
	for i, it := range items {
		if it.At < e.now {
			panic(fmt.Sprintf("sim: scheduling event at %v before now %v", it.At, e.now))
		}
		if it.Fn == nil {
			panic("sim: nil event callback")
		}
		ev := &Event{at: it.At, seq: e.seq, fn: it.Fn, index: len(e.queue)}
		e.seq++
		e.queue = append(e.queue, ev)
		evs[i] = ev
	}
	heap.Init(&e.queue)
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
	for _, ev := range e.queue {
		if ev.canceled {
			ev.index = -1
			continue
		}
		ev.index = len(live)
		live = append(live, ev)
	}
	for i := len(live); i < len(e.queue); i++ {
		e.queue[i] = nil
	}
	e.queue = live
	e.canceled = 0
	heap.Init(&e.queue)
}

// Step executes the next event, advancing the clock to its timestamp. It
// returns false if the calendar is empty.
func (e *Engine) Step() bool {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*Event)
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
	for e.queue.Len() > 0 {
		ev := e.queue[0]
		if !ev.canceled {
			return ev
		}
		heap.Pop(&e.queue)
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

// eventHeap orders events by (time, sequence) so same-time events fire in
// the order they were scheduled.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
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
