package netsim

import (
	"math"
	"testing"
	"time"

	"erms/internal/metrics"
	"erms/internal/topology"
)

// TestOneAllocationPerInstant is the property the fabric is built around:
// however many changes land on one virtual instant, rates are computed once.
func TestOneAllocationPerInstant(t *testing.T) {
	e, topo, fb := newFabric(t)
	during := func(step func()) (allocations, changes uint64) {
		a, c := fb.allocations, fb.changes
		step()
		return fb.allocations - a, fb.changes - c
	}

	// k starts at one instant, from outside any event.
	var flows []*Flow
	a, c := during(func() {
		for i := 0; i < 6; i++ {
			flows = append(flows, fb.StartFlow(topo.ReadPath(0, topology.NodeID(1+i%5)), 400*mb, 0, nil))
		}
		e.RunFor(0)
	})
	if a != 1 || c != 6 {
		t.Fatalf("6 starts at one instant: %d allocations for %d changes, want 1 for 6", a, c)
	}

	// A completion whose callback starts the file's next block: the 1 MB
	// flow drains, sharing disk 0 seven ways, well inside the second.
	var next *Flow
	fb.StartFlow(topo.ReadPath(0, 1), mb, 0, func(*Flow) {
		next = fb.StartFlow(topo.ReadPath(0, 2), 400*mb, 0, nil)
	})
	e.RunFor(0)
	a, c = during(func() { e.RunFor(time.Second) })
	if next == nil || a != 1 || c != 2 {
		t.Fatalf("completion + follow-on start: %d allocations for %d changes (next %v), want 1 for 2", a, c, next)
	}

	// k cancels at one instant (a KillNode storm), some flows left running.
	a, c = during(func() {
		for _, f := range flows[:4] {
			fb.Cancel(f)
		}
		e.RunFor(0)
	})
	if a != 1 || c != 4 {
		t.Fatalf("4 cancels at one instant: %d allocations for %d changes, want 1 for 4", a, c)
	}

	// An observer in the middle of a burst forces the pending allocation —
	// it never sees a stale rate — and the burst's tail costs one more.
	a, _ = during(func() {
		f := fb.StartFlow(topo.ReadPath(3, 3), 400*mb, 0, nil)
		if r := f.Rate(); r != 80*mb {
			t.Errorf("rate read mid-burst = %v, want the disk's %v", r, 80*mb)
		}
		fb.SetLinkFactor(topo.Node(3).Disk, 0.5)
		if u := fb.LinkUtilization(topo.Node(3).Disk); u != 1 {
			t.Errorf("utilization read mid-burst = %v, want 1", u)
		}
		if r := f.Rate(); r != 40*mb {
			t.Errorf("rate after the factor change = %v, want %v", r, 40*mb)
		}
		e.RunFor(0)
	})
	if a != 2 {
		t.Fatalf("observed burst: %d allocations, want 2", a)
	}

	reg := metrics.NewRegistry()
	fb.RegisterMetrics(reg)
	allocs, changes := reg.Gauge("net_rate_allocations_total").Value(), reg.Gauge("net_flow_changes_total").Value()
	if allocs != float64(fb.allocations) || changes != float64(fb.changes) || allocs == 0 {
		t.Fatalf("registry reports %v allocations / %v changes, fabric has %d / %d", allocs, changes, fb.allocations, fb.changes)
	}
}

// TestSteadyStateCycleAllocatesOnlyTheFlow pins the host-independent cost of
// a start→complete cycle under contention: one heap allocation, the Flow.
// The path is the caller's slice, the event and its callback are the
// fabric's own, the finished list is scratch.
func TestSteadyStateCycleAllocatesOnlyTheFlow(t *testing.T) {
	e, topo, fb := newFabric(t)
	for i := 0; i < 8; i++ { // background contention that outlives the test
		fb.StartFlow(topo.ReadPath(topology.NodeID(i%6), topology.NodeID((i+1)%6)), 1e15, 0, nil)
	}
	path := topo.ReadPath(0, 4)
	done := 0
	onDone := func(*Flow) { done++ }
	cycle := func() {
		fb.StartFlow(path, mb, 0, onDone)
		e.RunFor(time.Second)
	}
	cycle() // grow the scratch slices and the calendar
	if n := testing.AllocsPerRun(200, cycle); n > 1 {
		t.Fatalf("start→complete cycle allocates %v times, want at most 1 (the Flow)", n)
	}
	if done != 202 {
		t.Fatalf("completed %d cycles, want 202", done)
	}
}

// TestDistantETADoesNotLivelock: a 64 MB flow on a disk degraded to 1e-13
// has an ETA of ~8e21 ns, past the clock's 2^63 ns. The conversion used to
// overflow negative, clamp to zero and re-fire the completion at the same
// instant forever (1,000 Steps, clock still at 0). The event now parks at
// the clock's horizon, so the engine goes on to whatever comes next — here
// the disk recovering a second later.
func TestDistantETADoesNotLivelock(t *testing.T) {
	e, topo, fb := newFabric(t)
	disk := topo.Node(0).Disk
	var doneAt time.Duration
	f := fb.StartFlow(topo.ReadPath(0, 0), 64*mb, 0, func(*Flow) { doneAt = e.Now() })
	fb.SetLinkFactor(disk, 1e-13)
	e.Schedule(time.Second, func() { fb.SetLinkFactor(disk, 1) })
	steps := 0
	for e.Step() {
		if steps++; steps > 100 {
			t.Fatalf("still stepping after %d events, clock at %v", steps, e.Now())
		}
	}
	if want := time.Second + 800*time.Millisecond; !f.Done() || (doneAt-want).Abs() > time.Millisecond {
		t.Fatalf("done %v at %v, want ~%v", f.Done(), doneAt, want)
	}

	// Never recovering, the flow waits at the end of time and Run returns.
	e, topo, fb = newFabric(t)
	f = fb.StartFlow(topo.ReadPath(0, 0), 64*mb, 0, nil)
	fb.SetLinkFactor(topo.Node(0).Disk, 1e-13)
	for steps = 0; e.Step(); steps++ {
		if steps > 100 {
			t.Fatalf("still stepping after %d events, clock at %v", steps, e.Now())
		}
	}
	if e.Now() != math.MaxInt64 || f.Done() || fb.Progress(f) <= 0 {
		t.Fatalf("clock %v, done %v, remaining %v; want the horizon and an unfinished flow", e.Now(), f.Done(), fb.Progress(f))
	}
}
