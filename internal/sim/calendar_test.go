package sim

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// calKey is an event's place in the firing order.
type calKey struct {
	at  time.Duration
	seq uint64
}

func (k calKey) before(o calKey) bool { return k.at < o.at || k.at == o.at && k.seq < o.seq }

// calendarModel drives an Engine and keeps beside it the reference for
// TestCalendarMatchesModel: the (at, seq) key of every pending event, found
// by linear scan, and a sequence counter that every arm advances in step
// with the engine's.
type calendarModel struct {
	e       *Engine
	evs     []*Event // by id
	pending map[int]calKey
	seq     uint64
	fired   []int         // ids in the order the engine fired them
	selfArm time.Duration // >= 0: the next event to fire re-arms itself that far ahead
	states  map[string]int
}

func newCalendarModel() *calendarModel {
	return &calendarModel{e: NewEngine(), pending: map[int]calKey{}, selfArm: -1, states: map[string]int{}}
}

func (m *calendarModel) fn(id int) func() {
	return func() {
		m.fired = append(m.fired, id)
		if d := m.selfArm; d >= 0 {
			m.selfArm = -1
			m.states["firing"]++
			m.rearm(id, d)
		}
	}
}

func (m *calendarModel) file(id int, at time.Duration) {
	m.pending[id] = calKey{at, m.seq}
	m.seq++
}

func (m *calendarModel) at(at time.Duration) {
	m.evs = append(m.evs, m.e.At(at, m.fn(len(m.evs))))
	m.file(len(m.evs)-1, at)
}

func (m *calendarModel) schedule(d time.Duration) {
	m.evs = append(m.evs, m.e.Schedule(d, m.fn(len(m.evs))))
	m.file(len(m.evs)-1, m.e.Now()+max(d, 0))
}

func (m *calendarModel) batch(ats []time.Duration) {
	items := make([]Timed, len(ats))
	for i, at := range ats {
		items[i] = Timed{At: at, Fn: m.fn(len(m.evs) + i)}
	}
	for i, ev := range m.e.AtBatch(items) {
		m.evs = append(m.evs, ev)
		m.file(len(m.evs)-1, ats[i])
	}
}

func (m *calendarModel) cancel(id int) {
	m.e.Cancel(m.evs[id])
	delete(m.pending, id)
}

// rearm is Reschedule of event id in whatever state it is in.
func (m *calendarModel) rearm(id int, d time.Duration) {
	if m.e.Reschedule(m.evs[id], d, m.fn(id)) != m.evs[id] {
		panic("Reschedule did not reuse the event")
	}
	m.file(id, m.e.Now()+max(d, 0))
}

// state names what Reschedule of event id would re-arm.
func (m *calendarModel) state(id int) string {
	switch _, ok := m.pending[id]; {
	case ok:
		return "pending"
	case m.evs[id].Canceled():
		return "canceled"
	}
	return "fired"
}

// step fires one event and checks it is the model's earliest.
func (m *calendarModel) step() error {
	id, k, ok := -1, calKey{}, false
	for i, ki := range m.pending {
		if !ok || ki.before(k) {
			id, k, ok = i, ki, true
		}
	}
	delete(m.pending, id) // before firing: the event may re-arm itself
	n := len(m.fired)
	if stepped := m.e.Step(); stepped != ok {
		return fmt.Errorf("Step = %v with %d events pending in the model", stepped, len(m.pending))
	}
	if ok && (len(m.fired) != n+1 || m.fired[n] != id || m.e.Now() != k.at) {
		return fmt.Errorf("fired %v at %v, model's earliest is %d at %v", m.fired[n:], m.e.Now(), id, k.at)
	}
	return nil
}

// drain runs the engine dry and checks it fired the model's events in
// (at, seq) order.
func (m *calendarModel) drain() error {
	m.selfArm = -1
	ids := make([]int, 0, len(m.pending))
	for id := range m.pending {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b int) int {
		if m.pending[a].before(m.pending[b]) {
			return -1
		}
		return 1
	})
	n := len(m.fired)
	m.e.Run()
	if !slices.Equal(m.fired[n:], ids) {
		return fmt.Errorf("drain fired %d events out of (at, seq) order, model holds %d", len(m.fired)-n, len(ids))
	}
	if len(ids) > 0 && m.e.Now() != m.pending[ids[len(ids)-1]].at {
		return fmt.Errorf("drain ended at %v, last event due at %v", m.e.Now(), m.pending[ids[len(ids)-1]].at)
	}
	clear(m.pending)
	return nil
}

func (m *calendarModel) check() error {
	if p := m.e.Pending(); p != len(m.pending) {
		return fmt.Errorf("Pending = %d, model holds %d", p, len(m.pending))
	}
	return nil
}

// apply decodes one operation: the low three bits pick it, the rest
// parameterise it.
func (m *calendarModel) apply(op uint32) error {
	p := int(op >> 3)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	switch op % 8 {
	case 0:
		m.at(m.e.Now() + ms(p%50))
	case 1:
		m.schedule(ms(p%50 - 5)) // a negative delay fires now
	case 2:
		ats := make([]time.Duration, p%700)
		for i := range ats {
			ats[i] = m.e.Now() + ms((p+i*31)%50)
		}
		m.batch(ats)
	case 3, 4:
		// A single cancel, or a storm that drives the calendar past its
		// compaction threshold; ids already fired or canceled are no-ops.
		n := 1
		if op%8 == 4 {
			n = p % 900
		}
		for i := 0; i < n && len(m.evs) > 0; i++ {
			m.cancel((p + i*7919) % len(m.evs))
		}
	case 5:
		if len(m.evs) > 0 {
			id := p % len(m.evs)
			m.states[m.state(id)]++
			m.rearm(id, ms(p%13-2))
		}
	default:
		if p&1 == 1 {
			m.selfArm = ms((p >> 1) % 5)
		}
		for i := (p >> 3) % 6; i >= 0; i-- {
			if err := m.step(); err != nil {
				return err
			}
		}
	}
	return m.check()
}

// TestCalendarMatchesModel checks the calendar against a sorted (at, seq)
// model over random interleavings of At, Schedule, mid-stream AtBatch,
// Cancel, and Reschedule of pending, canceled, fired and firing events:
// after every operation each fired event is the model's earliest, at its
// time, and Pending is exact. A scripted run crosses the compaction
// threshold, and a drain of 120,000 events shrinks the calendar's backing
// array back to its floor.
func TestCalendarMatchesModel(t *testing.T) {
	states := map[string]int{}
	run := func(ops []uint32) error {
		m := newCalendarModel()
		for i, op := range ops {
			if err := m.apply(op); err != nil {
				return fmt.Errorf("op %d (%d): %w", i, op, err)
			}
		}
		if err := m.drain(); err != nil {
			return err
		}
		for s, n := range m.states {
			states[s] += n
		}
		return m.check()
	}
	if err := quick.Check(func(ops []uint32) bool {
		err := run(ops)
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"pending", "canceled", "fired", "firing"} {
		if states[s] == 0 {
			t.Errorf("no Reschedule of a %s event in the random runs: %v", s, states)
		}
	}

	t.Run("compaction", func(t *testing.T) {
		m := newCalendarModel()
		ops := []uint32{2 + 8*699, 2 + 8*650, 5 + 8*40} // two batches, a pending rearm
		for i := 0; i < 12; i++ {
			ops = append(ops, 4+8*uint32(899-i)) // cancel storms
		}
		for id := uint32(0); id < 60; id++ {
			ops = append(ops, 5+8*(id*23)) // rearm canceled, now uncalendared, events
		}
		queued := 0
		for i, op := range ops {
			if err := m.apply(op); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if i == 2 {
				queued = len(m.e.queue)
			}
		}
		if len(m.e.queue) >= queued || m.states["canceled"] == 0 {
			t.Fatalf("calendar of %d not compacted (now %d) or no canceled event re-armed (%v)", queued, len(m.e.queue), m.states)
		}
		if err := m.drain(); err != nil {
			t.Fatal(err)
		}
		if err := m.check(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("drain", func(t *testing.T) {
		const n = 120000
		m := newCalendarModel()
		ats := make([]time.Duration, n)
		for i := range ats {
			ats[i] = time.Duration(i*7919%n) * time.Microsecond
		}
		m.batch(ats)
		peak := cap(m.e.queue)
		if err := m.drain(); err != nil {
			t.Fatal(err)
		}
		if c := cap(m.e.queue); peak < n || c > minCalendarCap {
			t.Fatalf("calendar capacity %d after draining %d (peak %d), want <= %d", c, n, peak, minCalendarCap)
		}
	})
}
