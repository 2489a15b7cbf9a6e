// Package netsim is a flow-level network/disk simulator.
//
// Transfers (block reads, replica copies, parity writes) are modeled as
// fluid flows over a set of capacity-limited links. Rates are a function of
// the flow set and the link capacities alone: a max-min fair allocation
// (progressive filling, honoring per-flow rate caps). Every change to either
// settles the bytes moved so far; the allocation runs once per virtual
// instant, after the whole burst of changes made at it, from the fabric's one
// event, which then moves itself to the next flow completion. This captures
// the contention effects the ERMS paper measures: a datanode's disk and NIC
// saturate as concurrent readers pile onto a hot replica, and rack uplinks
// throttle remote reads.
package netsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"erms/internal/metrics"
	"erms/internal/sim"
	"erms/internal/topology"
	"erms/internal/trace"
)

// Flow is one in-flight transfer.
type Flow struct {
	id        int64
	path      []topology.LinkID
	remaining float64 // bytes left
	rate      float64 // bytes/s under the current allocation
	maxRate   float64 // per-flow cap; 0 means unlimited
	start     time.Duration
	onDone    func(f *Flow)
	fabric    *Fabric
	done      bool
	canceled  bool
	span      trace.SpanID // "net.flow" span, 0 when tracing is off
}

// Span returns the flow's trace span ID (0 when tracing is disabled).
func (f *Flow) Span() trace.SpanID { return f.span }

// ID returns the flow's unique identifier.
func (f *Flow) ID() int64 { return f.id }

// Rate returns the currently allocated rate in bytes/s.
func (f *Flow) Rate() float64 {
	f.fabric.allocate()
	return f.rate
}

// Remaining returns the bytes left as of the last allocation instant; call
// Fabric.Progress for an up-to-the-instant value.
func (f *Flow) Remaining() float64 { return f.remaining }

// Start returns the virtual time the flow was admitted.
func (f *Flow) Start() time.Duration { return f.start }

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done }

// Canceled reports whether the flow was canceled before completion.
func (f *Flow) Canceled() bool { return f.canceled }

// Fabric owns the link table and the active flow set.
type Fabric struct {
	clock sim.Clock
	links []topology.Link
	// flows holds the active flows in ascending id order: ids are assigned
	// monotonically on admission and removal preserves order, so the slice
	// is always sorted and every order-sensitive loop can range over it
	// directly instead of sorting a map's keys.
	flows []*Flow
	// linkFlows[l] holds the active flows whose path crosses link l, in
	// ascending id order — the per-link index that makes utilization
	// queries proportional to the link's own population.
	linkFlows [][]*Flow
	nextID    int64
	lastCalc  time.Duration

	// wake is the fabric's one event, re-armed for its whole lifetime (wakeFn
	// caches the method value): at the instant of a change while dirty —
	// rates stale, so no time may pass — else at the earliest completion.
	wake   *sim.Event
	wakeFn func()
	dirty  bool
	// changes counts starts, cancels, completions and link-factor changes;
	// allocations, the computeRates runs that served them.
	changes, allocations uint64

	// Persistent scratch for computeRates (indexed by LinkID) and wakeUp's
	// finished list; reused so the hot path stays allocation-free.
	crResidual []float64
	crActive   []int
	crSeen     []bool
	crTouched  []topology.LinkID
	crFrozen   []bool
	finished   []*Flow

	// BytesMoved accumulates total bytes delivered, for network-overhead
	// accounting in experiments.
	BytesMoved float64
	// bytesPerLink accumulates delivered bytes per link.
	bytesPerLink []float64
	// baseCap remembers each link's nominal capacity so degradation
	// factors compose from the original value, not from each other.
	baseCap []float64
	// factor is the current degradation multiplier per link (1 = healthy).
	factor []float64
	// tracer records a "net.flow" span per transfer; nil disables tracing.
	tracer *trace.Tracer
}

// SetTracer installs a span tracer: each admitted flow records a
// "net.flow" span under the ambient span, closed when the last byte lands
// (or marked canceled on Cancel). Nil disables tracing.
func (fb *Fabric) SetTracer(tr *trace.Tracer) { fb.tracer = tr }

// RegisterMetrics registers the fabric's transfer accounting into a
// metrics registry.
func (fb *Fabric) RegisterMetrics(r *metrics.Registry) {
	r.GaugeFunc("net_bytes_moved_total", func() float64 { return fb.BytesMoved })
	r.GaugeFunc("net_active_flows", func() float64 { return float64(len(fb.flows)) })
	r.GaugeFunc("net_flows_admitted_total", func() float64 { return float64(fb.nextID) })
	r.GaugeFunc("net_flow_changes_total", func() float64 { return float64(fb.changes) })
	r.GaugeFunc("net_rate_allocations_total", func() float64 { return float64(fb.allocations) })
}

// New creates a fabric over the topology's link table.
func New(clock sim.Clock, topo *topology.Topology) *Fabric {
	links := make([]topology.Link, len(topo.Links))
	copy(links, topo.Links)
	base := make([]float64, len(links))
	factor := make([]float64, len(links))
	for i, l := range links {
		base[i] = l.Capacity
		factor[i] = 1
	}
	fb := &Fabric{
		clock:        clock,
		links:        links,
		linkFlows:    make([][]*Flow, len(links)),
		bytesPerLink: make([]float64, len(links)),
		baseCap:      base,
		factor:       factor,
		crResidual:   make([]float64, len(links)),
		crActive:     make([]int, len(links)),
		crSeen:       make([]bool, len(links)),
	}
	fb.wakeFn = fb.wakeUp
	return fb
}

// SetLinkFactor scales link id's capacity to factor × its nominal value —
// the chaos harness's slow-disk / slow-NIC / congested-uplink fault.
// In-flight flows are settled at their old rates and re-fair-shared under
// the new capacity. Factor 1 restores the link; factors compose from the
// nominal capacity, not the current one. Panics on factor <= 0 (a dead
// link is a partition or crash, not a slow link).
func (fb *Fabric) SetLinkFactor(id topology.LinkID, factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("netsim: link factor %v must be positive", factor))
	}
	if fb.factor[id] == factor {
		return
	}
	fb.settle()
	fb.factor[id] = factor
	fb.links[id].Capacity = fb.baseCap[id] * factor
	fb.changed()
}

// LinkFactor returns the current degradation multiplier for link id.
func (fb *Fabric) LinkFactor(id topology.LinkID) float64 { return fb.factor[id] }

// ActiveFlows returns the number of in-flight flows.
func (fb *Fabric) ActiveFlows() int { return len(fb.flows) }

// LinkBytes returns the total bytes that have crossed link id.
func (fb *Fabric) LinkBytes(id topology.LinkID) float64 { return fb.bytesPerLink[id] }

// LinkUtilization returns the instantaneous utilization (allocated rate /
// capacity) of link id. The per-link index keeps this proportional to the
// link's own flow population; summation stays in flow-id order, so the
// float arithmetic matches a global ordered scan bit for bit.
func (fb *Fabric) LinkUtilization(id topology.LinkID) float64 {
	fb.allocate()
	var used float64
	for _, f := range fb.linkFlows[id] {
		used += f.rate
	}
	c := fb.links[id].Capacity
	if c <= 0 {
		return 0
	}
	return used / c
}

// StartFlow admits a transfer of bytes over path. maxRate of 0 means no
// per-flow cap. onDone fires (in a fresh event) when the last byte lands;
// it receives the completed flow. The fabric keeps path: the caller must not
// modify it after the call (passing one slice to several flows is fine).
// StartFlow panics on an empty path or non-positive size, which indicate
// modeling bugs.
func (fb *Fabric) StartFlow(path []topology.LinkID, bytes float64, maxRate float64, onDone func(f *Flow)) *Flow {
	if len(path) == 0 {
		panic("netsim: empty flow path")
	}
	if bytes <= 0 {
		panic(fmt.Sprintf("netsim: flow size %v must be positive", bytes))
	}
	fb.settle()
	f := &Flow{
		id:        fb.nextID,
		path:      path,
		remaining: bytes,
		maxRate:   maxRate,
		start:     fb.clock.Now(),
		onDone:    onDone,
		fabric:    fb,
	}
	fb.nextID++
	fb.flows = append(fb.flows, f) // ids are monotonic, so append keeps id order
	for _, l := range f.path {
		lf := fb.linkFlows[l]
		if n := len(lf); n > 0 && lf[n-1] == f {
			continue // a path may revisit a link; index it once
		}
		fb.linkFlows[l] = append(lf, f)
	}
	if tr := fb.tracer; tr.Enabled() {
		f.span = tr.Begin("net.flow", tr.Current())
		tr.SetAttrInt(f.span, "bytes", int64(bytes))
	}
	fb.changed()
	return f
}

// Cancel aborts an in-flight flow; its completion callback never fires.
// Canceling a finished or already-canceled flow is a no-op.
func (fb *Fabric) Cancel(f *Flow) {
	if f == nil || f.done || f.canceled {
		return
	}
	fb.settle()
	f.canceled = true
	fb.removeFlow(f)
	fb.tracer.SetAttr(f.span, "canceled", "true")
	fb.tracer.End(f.span)
	fb.changed()
}

// removeFlow drops f from the global flow slice and every per-link index,
// preserving ascending id order in each.
func (fb *Fabric) removeFlow(f *Flow) {
	fb.flows = deleteByID(fb.flows, f.id)
	for _, l := range f.path {
		fb.linkFlows[l] = deleteByID(fb.linkFlows[l], f.id)
	}
}

// deleteByID removes the flow with the given id from an id-sorted slice,
// keeping order. Missing ids are a no-op (a path that revisits a link is
// indexed once but visited twice on removal).
func deleteByID(s []*Flow, id int64) []*Flow {
	i, found := slices.BinarySearchFunc(s, id, func(f *Flow, id int64) int { return cmp.Compare(f.id, id) })
	if !found {
		return s
	}
	return slices.Delete(s, i, i+1)
}

// Progress returns the bytes remaining for f right now.
func (fb *Fabric) Progress(f *Flow) float64 {
	if f.done {
		return 0
	}
	fb.allocate()
	elapsed := (fb.clock.Now() - fb.lastCalc).Seconds()
	rem := f.remaining - f.rate*elapsed
	if rem < 0 {
		rem = 0
	}
	return rem
}

// settle advances every active flow's remaining bytes to the current
// instant, attributing the moved bytes to accounting.
func (fb *Fabric) settle() {
	now := fb.clock.Now()
	elapsed := (now - fb.lastCalc).Seconds()
	if elapsed > 0 {
		for _, f := range fb.flows {
			moved := f.rate * elapsed
			if moved > f.remaining {
				moved = f.remaining
			}
			f.remaining -= moved
			fb.BytesMoved += moved
			for _, l := range f.path {
				fb.bytesPerLink[l] += moved
			}
		}
	}
	fb.lastCalc = now
}

// changed records one change to the flow set or a capacity, settled by the
// caller. Rates are now stale, so the fabric's event moves to this instant:
// one allocation follows the whole burst of changes made at it.
func (fb *Fabric) changed() {
	fb.changes++
	if !fb.dirty {
		fb.dirty = true
		fb.wake = fb.clock.Reschedule(fb.wake, 0, fb.wakeFn)
	}
}

// allocate brings stale rates up to date — one max-min computation — and
// moves the fabric's event to the earliest completion. While rates are
// current it does nothing, so every observer of a rate calls it first.
func (fb *Fabric) allocate() {
	if !fb.dirty {
		return
	}
	fb.dirty = false
	if len(fb.flows) == 0 {
		return
	}
	fb.allocations++
	fb.computeRates()

	// Next completion: the smallest remaining/rate, rounded *up* to the
	// clock's nanosecond — rounded down, the event would fire a hair early,
	// find bytes remaining, and re-arm at the same instant forever.
	eta := math.Inf(1)
	for _, f := range fb.flows {
		if f.rate > 0 {
			eta = min(eta, f.remaining/f.rate)
		}
	}
	ns := math.Ceil(eta * 1e9)
	horizon := math.MaxInt64 - fb.clock.Now()
	if math.IsInf(eta, 1) || (horizon == 0 && ns > 0) {
		// Every flow starved on a zero-capacity link (not with a sane
		// config), or the clock has run out: they wait for a later change.
		return
	}
	// An ETA past the end of the clock (64 MB on a disk degraded to 1e-13:
	// ~8e21 ns) parks the event at that horizon; unchecked, the conversion
	// goes negative and fires at this instant forever.
	delay := horizon
	if ns < float64(horizon) {
		delay = time.Duration(ns)
	}
	fb.wake = fb.clock.Reschedule(fb.wake, delay, fb.wakeFn)
}

// wakeUp is the fabric's one event handler. Fired dirty, it is the flush
// after a burst of changes and only allocates: completing flows here could
// finish one a nanosecond before its rounded-up ETA. Fired clean, the
// earliest completion is due: it settles progress, completes every flow
// that has (numerically) drained, runs their callbacks — which may start
// the next flows — and allocates once for all of that.
func (fb *Fabric) wakeUp() {
	if !fb.dirty {
		fb.settle()
		finished := fb.finished[:0] // in id order, so completion callbacks are too
		for _, f := range fb.flows {
			// A flow is done when what remains is less than it can move in one
			// clock tick (1 ns) — the clock cannot resolve anything smaller —
			// plus a fixed epsilon for float rounding.
			epsilon := 1e-6 + f.rate*2e-9
			if f.remaining <= epsilon {
				finished = append(finished, f)
			}
		}
		for _, f := range finished {
			f.remaining = 0
			f.done = true
			fb.removeFlow(f)
			fb.tracer.End(f.span)
		}
		fb.changes += uint64(len(finished))
		fb.dirty = true // callbacks' changes join the allocation below
		for _, f := range finished {
			if cb := f.onDone; cb != nil {
				f.onDone = nil
				cb(f)
			}
		}
		clear(finished)
		fb.finished = finished[:0]
	}
	fb.allocate()
}

// computeRates runs progressive filling: repeatedly find the tightest
// constraint (a link's equal share among its unfrozen flows, or a flow's own
// cap), freeze the implicated flows at that rate, and continue until every
// flow is frozen.
//
// Link state lives in persistent dense arrays indexed by LinkID (plus a
// touched-link list), and frozen is positional over the id-ordered flow
// slice, so the hot path allocates nothing. Every loop whose float
// arithmetic depends on visit order walks flows by ascending id and each
// flow's links in path order; the touched list feeds only a min and a reset,
// which do not, so it stays in first-touch order.
func (fb *Fabric) computeRates() {
	flows := fb.flows // ascending id: fixed visit order keeps the float math reproducible
	residual := fb.crResidual
	nActive := fb.crActive
	seen := fb.crSeen
	touched := fb.crTouched[:0]
	if cap(fb.crFrozen) < len(flows) {
		fb.crFrozen = make([]bool, len(flows))
	}
	frozen := fb.crFrozen[:len(flows)]
	clear(frozen)
	capped := false // no capped flow: the per-round cap scan has nothing to find
	for _, f := range flows {
		f.rate = 0
		capped = capped || f.maxRate > 0
		for _, l := range f.path {
			if !seen[l] {
				seen[l] = true
				residual[l] = fb.links[l].Capacity
				nActive[l] = 0
				touched = append(touched, l)
			}
			nActive[l]++
		}
	}
	remaining := len(flows)
	for remaining > 0 {
		// Tightest link share among links with unfrozen flows.
		share := math.Inf(1)
		for _, id := range touched {
			if nActive[id] > 0 {
				s := residual[id] / float64(nActive[id])
				if s < share {
					share = s
				}
			}
		}
		// A flow cap can bind before the link share does.
		capBind := math.Inf(1)
		if capped {
			for i, f := range flows {
				if !frozen[i] && f.maxRate > 0 && f.maxRate < capBind {
					capBind = f.maxRate
				}
			}
		}
		rate := share
		capLimited := false
		if capBind < share {
			rate = capBind
			capLimited = true
		}
		if math.IsInf(rate, 1) {
			// No constraints at all (flows on infinite links with no caps):
			// should not happen; freeze at a huge rate to guarantee progress.
			rate = math.MaxFloat64 / 4
		}
		// Freeze the binding flows.
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			bind := false
			if capLimited {
				bind = f.maxRate > 0 && f.maxRate <= rate
			} else {
				for _, l := range f.path {
					if residual[l]/float64(nActive[l]) <= rate+1e-12 {
						bind = true
						break
					}
				}
				if !bind && f.maxRate > 0 && f.maxRate <= rate {
					bind = true
				}
			}
			if !bind {
				continue
			}
			r := rate
			if f.maxRate > 0 && f.maxRate < r {
				r = f.maxRate
			}
			f.rate = r
			frozen[i] = true
			remaining--
			for _, l := range f.path {
				residual[l] -= r
				if residual[l] < 0 {
					residual[l] = 0
				}
				nActive[l]--
			}
		}
	}
	for _, id := range touched {
		seen[id] = false
	}
	fb.crTouched = touched[:0]
}
