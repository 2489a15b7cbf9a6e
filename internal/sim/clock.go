package sim

import "time"

// Clock is the virtual-time scheduling seam between the engine and every
// subsystem that keeps timers: the network fabric, the Condor scheduler,
// the HDFS heartbeat/scrubber/safe-mode tickers, and the judge's CEP
// windows all schedule through this interface rather than through a
// concrete *Engine. *Engine implements Clock directly, so the sim path is
// byte-identical to scheduling on the engine itself (gated by
// TestClockSeamEquivalence); service mode reuses the same engine paced
// against a WallClock, so the subsystems never notice which mode they run
// in. Implementations are not required to be goroutine-safe — service
// mode serializes all access externally (see internal/server).
type Clock interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// Schedule runs fn after delay of virtual time; negative delays fire
	// immediately, after events already scheduled for the current instant.
	Schedule(delay time.Duration, fn func()) *Event
	// At runs fn at absolute virtual time t; scheduling in the past panics.
	At(t time.Duration, fn func()) *Event
	// AtBatch schedules many events in one calendar operation, preserving
	// slice order for same-instant firings.
	AtBatch(items []Timed) []*Event
	// Cancel prevents a scheduled event from firing.
	Cancel(ev *Event)
	// Reschedule re-arms ev (nil allocates one) to run fn after delay,
	// ordered exactly as Cancel(ev) then Schedule(delay, fn) would be.
	Reschedule(ev *Event, delay time.Duration, fn func()) *Event
	// RunUntil executes events with timestamps <= t and advances the
	// virtual clock to exactly t (checkpoint restore realigns time with
	// this; ordinary subsystems never drive the clock themselves).
	RunUntil(t time.Duration)
}

// Engine implements Clock.
var _ Clock = (*Engine)(nil)

// WallClock abstracts the passage of real time for service mode — the
// Now()/After()/Sleep() seam. The engine stays the single scheduling
// authority in both modes; a WallClock only decides how fast the pacer
// lets virtual time advance. Real() is backed by package time for
// deployments; NewSimClock is backed by an Engine so the identical
// service-mode code path runs deterministically under test.
type WallClock interface {
	// Now returns the current wall time.
	Now() time.Time
	// After returns a channel that delivers the wall time once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks until d has elapsed.
	Sleep(d time.Duration)
}

// realClock is the production WallClock, backed by package time.
type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }

// Real returns the WallClock backed by package time. Passing it as
// erms.Options.Clock puts a System in service mode: virtual time tracks
// wall time instead of being driven by RunFor.
func Real() WallClock { return realClock{} }

// simEpoch anchors SimClock wall times at a fixed instant so simulated
// wall-clock runs are reproducible byte for byte.
var simEpoch = time.Date(2012, time.September, 24, 0, 0, 0, 0, time.UTC)

// SimClock is a WallClock backed by a simulation Engine: wall time is the
// engine's virtual clock offset from a fixed epoch, After is an engine
// event, and Sleep runs the engine forward. It lets the whole service-mode
// stack — pacer, HTTP handlers, drain logic — run deterministically in a
// test, with the test advancing time explicitly through Advance. Not
// goroutine-safe: drive it from one goroutine, like the Engine itself.
type SimClock struct {
	engine *Engine
}

// NewSimClock returns a WallClock that reads (and advances) the given
// engine. Pass the same engine the System runs on to pin wall time to the
// simulation, or a private engine to model an independent wall clock.
func NewSimClock(e *Engine) *SimClock { return &SimClock{engine: e} }

// Now returns the simulated wall time: a fixed epoch plus the engine's
// virtual clock.
func (c *SimClock) Now() time.Time { return simEpoch.Add(c.engine.Now()) }

// After returns a channel delivered (buffered, non-blocking) when the
// engine's clock passes d from now.
func (c *SimClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.engine.Schedule(d, func() { ch <- c.Now() })
	return ch
}

// Sleep advances the engine by d, firing everything due in between.
func (c *SimClock) Sleep(d time.Duration) { c.engine.RunFor(d) }

// Advance is Sleep under the name tests read naturally.
func (c *SimClock) Advance(d time.Duration) { c.engine.RunFor(d) }
