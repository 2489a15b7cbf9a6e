package netsim

import (
	"time"

	"erms/internal/sim"
)

// TokenBucket is a deterministic byte-budget limiter over virtual time:
// tokens accrue at rate bytes/sec up to burst, and Take debits a request's
// cost before letting it proceed. Waiters are served strictly FIFO, with
// refills computed lazily from the sim clock and wake-ups scheduled at the
// exact instant the head waiter's deficit fills — no polling, no
// wall-clock, so two same-seed runs drain identically. The repair pipeline
// puts one in front of its replica copies to give recovery traffic a
// bandwidth budget instead of the whole fabric.
type TokenBucket struct {
	clock   sim.Clock
	rate    float64 // tokens (bytes) per second
	burst   float64 // bucket capacity
	tokens  float64
	last    time.Duration // sim time of the last refill
	waiters []bucketWaiter
	armed   bool // a wake-up for the head waiter is scheduled
}

type bucketWaiter struct {
	cost  float64
	ready func()
}

// NewTokenBucket builds a bucket that starts full. rate must be positive;
// burst <= 0 defaults to one second's worth of tokens.
func NewTokenBucket(clock sim.Clock, rate, burst float64) *TokenBucket {
	if rate <= 0 {
		panic("netsim: token bucket rate must be positive")
	}
	if burst <= 0 {
		burst = rate
	}
	return &TokenBucket{
		clock:  clock,
		rate:   rate,
		burst:  burst,
		tokens: burst,
		last:   clock.Now(),
	}
}

// Take requests cost tokens and calls ready (on a fresh event) once they
// are debited. Requests larger than the burst are clamped to it — they
// drain the bucket completely rather than waiting forever. FIFO order is
// strict: a small request behind a large one waits its turn.
func (tb *TokenBucket) Take(cost float64, ready func()) {
	if cost > tb.burst {
		cost = tb.burst
	}
	if cost < 0 {
		cost = 0
	}
	tb.waiters = append(tb.waiters, bucketWaiter{cost: cost, ready: ready})
	tb.drain()
}

// Pending returns the number of requests waiting for tokens.
func (tb *TokenBucket) Pending() int { return len(tb.waiters) }

// refill accrues tokens for the time elapsed since the last refill.
func (tb *TokenBucket) refill() {
	now := tb.clock.Now()
	if now > tb.last {
		tb.tokens += float64(tb.rate * (now - tb.last).Seconds())
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
	tb.last = now
}

// drain serves waiters from the head while tokens last, then arms a single
// wake-up for the moment the head's deficit fills.
func (tb *TokenBucket) drain() {
	tb.refill()
	for len(tb.waiters) > 0 && tb.tokens >= tb.waiters[0].cost {
		w := tb.waiters[0]
		tb.waiters = tb.waiters[1:]
		tb.tokens -= w.cost
		if w.ready != nil {
			tb.clock.Schedule(0, w.ready)
		}
	}
	if len(tb.waiters) == 0 || tb.armed {
		return
	}
	deficit := tb.waiters[0].cost - tb.tokens
	wait := time.Duration(deficit / tb.rate * float64(time.Second))
	if wait <= 0 {
		wait = time.Nanosecond
	}
	tb.armed = true
	tb.clock.Schedule(wait, func() {
		tb.armed = false
		tb.drain()
	})
}
