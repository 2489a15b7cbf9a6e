package sim

import "time"

// Ticker invokes a callback at a fixed virtual-time period until stopped.
// ERMS uses tickers for CEP window evaluation, Condor negotiation cycles,
// and datanode heartbeats. Tickers schedule through the Clock seam, so
// the same ticker drives heartbeats in a simulation and in service mode.
type Ticker struct {
	clock   Clock
	period  time.Duration
	fn      func(now time.Duration)
	next    *Event // the one event, re-armed for every firing
	fireFn  func() // the cached fire
	stopped bool
}

// NewTicker schedules fn every period, with the first firing one period from
// now. It panics if period is not positive.
func NewTicker(c Clock, period time.Duration, fn func(now time.Duration)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{clock: c, period: period, fn: fn}
	t.fireFn = t.fire
	t.arm()
	return t
}

// arm schedules the next firing one period out. Reschedule gives the event
// a fresh sequence number, as scheduling a new one would, so the firing
// order is the same without the allocation.
func (t *Ticker) arm() {
	t.next = t.clock.Reschedule(t.next, t.period, t.fireFn)
}

func (t *Ticker) fire() {
	if t.stopped {
		return
	}
	t.fn(t.clock.Now())
	if !t.stopped {
		t.arm()
	}
}

// Stop cancels future firings. Safe to call multiple times and from within
// the callback.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.clock.Cancel(t.next)
}

// Stopped reports whether Stop has been called.
func (t *Ticker) Stopped() bool { return t.stopped }
