package netsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"erms/internal/sim"
	"erms/internal/topology"
)

const mb = float64(topology.MB)

func newFabric(t *testing.T) (*sim.Engine, *topology.Topology, *Fabric) {
	t.Helper()
	e := sim.NewEngine()
	topo := topology.New(topology.Config{
		Racks:        2,
		NodesPerRack: []int{3, 3},
		DiskBW:       80 * mb,
		NICBW:        125 * mb,
		RackUplinkBW: 250 * mb,
	})
	return e, topo, New(e, topo)
}

func TestSingleFlowDiskLimited(t *testing.T) {
	e, topo, fb := newFabric(t)
	var doneAt time.Duration
	// Local read: only the disk (80 MB/s) constrains; 160 MB takes 2 s.
	fb.StartFlow(topo.ReadPath(0, 0), 160*mb, 0, func(*Flow) { doneAt = e.Now() })
	e.Run()
	want := 2 * time.Second
	if diff := (doneAt - want).Abs(); diff > time.Millisecond {
		t.Fatalf("doneAt = %v, want ~%v", doneAt, want)
	}
}

func TestRemoteReadDiskStillBottleneck(t *testing.T) {
	e, topo, fb := newFabric(t)
	var doneAt time.Duration
	// Remote same-rack read: disk 80 < NIC 125, so still 80 MB/s.
	fb.StartFlow(topo.ReadPath(0, 1), 80*mb, 0, func(*Flow) { doneAt = e.Now() })
	e.Run()
	if diff := (doneAt - time.Second).Abs(); diff > time.Millisecond {
		t.Fatalf("doneAt = %v, want ~1s", doneAt)
	}
}

func TestFairShareOnSharedDisk(t *testing.T) {
	e, topo, fb := newFabric(t)
	var done []time.Duration
	// Two readers on node0's disk: each gets 40 MB/s; 80 MB each takes 2 s.
	for i := 0; i < 2; i++ {
		dst := topology.NodeID(i + 1)
		fb.StartFlow(topo.ReadPath(0, dst), 80*mb, 0, func(*Flow) {
			done = append(done, e.Now())
		})
	}
	e.Run()
	if len(done) != 2 {
		t.Fatalf("completions = %d", len(done))
	}
	for _, d := range done {
		if diff := (d - 2*time.Second).Abs(); diff > time.Millisecond {
			t.Fatalf("doneAt = %v, want ~2s", d)
		}
	}
}

func TestShortFlowFreesBandwidth(t *testing.T) {
	e, topo, fb := newFabric(t)
	var longDone time.Duration
	// Long flow: 120 MB. Short flow: 40 MB. Shared 80 MB/s disk.
	// Phase 1 (both active, 40 MB/s each) ends when short finishes at t=1s,
	// long has 80 MB left; phase 2 at 80 MB/s finishes at t=2s.
	fb.StartFlow(topo.ReadPath(0, 1), 120*mb, 0, func(*Flow) { longDone = e.Now() })
	fb.StartFlow(topo.ReadPath(0, 2), 40*mb, 0, nil)
	e.Run()
	if diff := (longDone - 2*time.Second).Abs(); diff > 2*time.Millisecond {
		t.Fatalf("long flow done at %v, want ~2s", longDone)
	}
}

func TestCrossRackUplinkContention(t *testing.T) {
	e, topo, fb := newFabric(t)
	// 5 cross-rack readers from 5 distinct rack-0 sources to distinct rack-1
	// clients: each source disk allows 80 MB/s but the 250 MB/s rack uplink
	// caps the aggregate; fair share = 50 MB/s each... only 3 nodes per rack,
	// so use 3 sources with 2 flows each: 6 flows, uplink share ~41.7 MB/s,
	// disks allow 40 MB/s per flow (2 per disk) -> disks bind at 40.
	var rates []float64
	var flows []*Flow
	srcs := topo.NodesInRack(0)
	dsts := topo.NodesInRack(1)
	for i := 0; i < 6; i++ {
		f := fb.StartFlow(topo.ReadPath(srcs[i%3], dsts[i%3]), 400*mb, 0, nil)
		flows = append(flows, f)
	}
	for _, f := range flows {
		rates = append(rates, f.Rate())
	}
	for _, r := range rates {
		if math.Abs(r-40*mb) > mb/100 {
			t.Fatalf("rate = %.1f MB/s, want 40 (disk-bound)", r/mb)
		}
	}
	e.Run()
}

func TestUplinkBindsWhenDisksAreFast(t *testing.T) {
	e := sim.NewEngine()
	topo := topology.New(topology.Config{
		Racks:        2,
		NodesPerRack: []int{3, 3},
		DiskBW:       1000 * mb, // fast disks so the uplink is the bottleneck
		NICBW:        1000 * mb,
		RackUplinkBW: 250 * mb,
	})
	fb := New(e, topo)
	srcs := topo.NodesInRack(0)
	dsts := topo.NodesInRack(1)
	var flows []*Flow
	for i := 0; i < 5; i++ {
		flows = append(flows, fb.StartFlow(topo.ReadPath(srcs[i%3], dsts[(i+1)%3]), 100*mb, 0, nil))
	}
	sum := 0.0
	for _, f := range flows {
		sum += f.Rate()
	}
	if math.Abs(sum-250*mb) > mb {
		t.Fatalf("aggregate cross-rack rate %.1f MB/s, want 250", sum/mb)
	}
	e.Run()
}

func TestPerFlowCap(t *testing.T) {
	e, topo, fb := newFabric(t)
	f := fb.StartFlow(topo.ReadPath(0, 1), 100*mb, 10*mb, nil)
	if math.Abs(f.Rate()-10*mb) > 1 {
		t.Fatalf("capped rate = %.1f MB/s, want 10", f.Rate()/mb)
	}
	var doneAt time.Duration
	f2 := fb.StartFlow(topo.ReadPath(0, 2), 70*mb, 0, func(*Flow) { doneAt = e.Now() })
	// Uncapped flow should get the disk's remaining 70 MB/s.
	if math.Abs(f2.Rate()-70*mb) > mb/100 {
		t.Fatalf("uncapped rate = %.1f MB/s, want 70", f2.Rate()/mb)
	}
	e.Run()
	if diff := (doneAt - time.Second).Abs(); diff > 2*time.Millisecond {
		t.Fatalf("uncapped flow done at %v, want ~1s", doneAt)
	}
}

func TestCancelStopsCallbackAndFreesShare(t *testing.T) {
	e, topo, fb := newFabric(t)
	canceledFired := false
	f1 := fb.StartFlow(topo.ReadPath(0, 1), 800*mb, 0, func(*Flow) { canceledFired = true })
	var doneAt time.Duration
	fb.StartFlow(topo.ReadPath(0, 2), 40*mb, 0, func(*Flow) { doneAt = e.Now() })
	e.Schedule(500*time.Millisecond, func() { fb.Cancel(f1) })
	e.Run()
	if canceledFired {
		t.Fatal("canceled flow's callback fired")
	}
	if !f1.Canceled() {
		t.Fatal("flow not marked canceled")
	}
	// 0.5 s at 40 MB/s = 20 MB done, then 20 MB at 80 MB/s = 0.25 s more.
	want := 750 * time.Millisecond
	if diff := (doneAt - want).Abs(); diff > 2*time.Millisecond {
		t.Fatalf("survivor done at %v, want ~%v", doneAt, want)
	}
	fb.Cancel(f1) // idempotent
}

func TestProgressTracksBytes(t *testing.T) {
	e, topo, fb := newFabric(t)
	f := fb.StartFlow(topo.ReadPath(0, 1), 80*mb, 0, nil)
	e.Schedule(500*time.Millisecond, func() {
		rem := fb.Progress(f)
		if math.Abs(rem-40*mb) > mb/100 {
			t.Errorf("remaining = %.1f MB at 0.5s, want 40", rem/mb)
		}
	})
	e.Run()
	if fb.Progress(f) != 0 || !f.Done() {
		t.Fatal("flow should be drained and done")
	}
}

// TestRetiredFlowReadsRetired: a canceled flow moves no more bytes, so its
// rate reads 0 and its progress stays where the cancel left it; a completed
// one reads 0 for both. Before, both kept the rate of their last allocation,
// and a canceled flow's progress went on falling as if it were still moving.
func TestRetiredFlowReadsRetired(t *testing.T) {
	e, topo, fb := newFabric(t)
	a := fb.StartFlow(topo.ReadPath(0, 0), 1000*mb, 0, nil)
	b := fb.StartFlow(topo.ReadPath(1, 1), 8*mb, 0, nil)
	e.RunFor(441 * time.Millisecond)
	if r := a.Rate(); r != 80*mb {
		t.Fatalf("rate before cancel = %.1f MB/s, want 80", r/mb)
	}
	fb.Cancel(a)
	left := fb.Progress(a)
	if math.Abs(left-(1000-0.441*80)*mb) > mb/100 {
		t.Fatalf("remaining at cancel = %.1f MB, want %.1f", left/mb, 1000-0.441*80)
	}
	e.RunFor(time.Second)
	if got := fb.Progress(a); got != left {
		t.Errorf("canceled flow's remaining moved from %.1f MB to %.1f MB", left/mb, got/mb)
	}
	if r := a.Rate(); r != 0 {
		t.Errorf("canceled flow's rate = %.1f MB/s, want 0", r/mb)
	}
	if !b.Done() || fb.Progress(b) != 0 || b.Rate() != 0 {
		t.Errorf("completed flow: done %v, remaining %v, rate %v; want true, 0, 0", b.Done(), fb.Progress(b), b.Rate())
	}
}

// TestRestartRetiredFlow: a flow restarted after it completes or is
// canceled takes a fresh id larger than every flow in the fabric, so the
// id-ordered flow slice and per-link indexes stay sorted, and it runs to
// completion again. Starting a flow still in flight panics.
func TestRestartRetiredFlow(t *testing.T) {
	e, topo, fb := newFabric(t)
	path := topo.ReadPath(0, 1)
	var f Flow
	completions := 0
	onDone := func(*Flow) { completions++ }
	sorted := func(when string) {
		t.Helper()
		ids := func(s []*Flow) bool {
			for i := 1; i < len(s); i++ {
				if s[i-1].id >= s[i].id {
					return false
				}
			}
			return true
		}
		if !ids(fb.flows) {
			t.Fatalf("%s: flows out of id order", when)
		}
		for l, lf := range fb.linkFlows {
			if !ids(lf) {
				t.Fatalf("%s: link %d's flows out of id order", when, l)
			}
		}
	}

	fb.Start(&f, path, 8*mb, 0, onDone)
	first := f.ID()
	other := fb.StartFlow(path, 400*mb, 0, nil) // in flight throughout
	e.RunFor(time.Second)
	if !f.Done() || completions != 1 {
		t.Fatalf("first run: done %v, completions %d", f.Done(), completions)
	}

	fb.Start(&f, path, 8*mb, 0, onDone) // after completion
	if f.ID() <= other.ID() || f.Done() || f.Canceled() {
		t.Fatalf("restart after completion: id %d (first %d, other %d), done %v, canceled %v",
			f.ID(), first, other.ID(), f.Done(), f.Canceled())
	}
	sorted("restart after completion")
	fb.StartFlow(topo.ReadPath(0, 2), 400*mb, 0, nil)
	e.RunFor(10 * time.Millisecond)
	fb.Cancel(&f)
	afterCancel := f.ID()

	fb.Start(&f, path, 8*mb, 0, onDone) // after Cancel
	if f.ID() <= afterCancel || f.Canceled() || f.Rate() <= 0 {
		t.Fatalf("restart after cancel: id %d (was %d), canceled %v, rate %v", f.ID(), afterCancel, f.Canceled(), f.Rate())
	}
	sorted("restart after cancel")
	e.RunFor(time.Second)
	if !f.Done() || completions != 2 {
		t.Fatalf("restart after cancel: done %v, completions %d, want true, 2", f.Done(), completions)
	}

	fb.Start(&f, path, 8*mb, 0, onDone)
	defer func() {
		if recover() == nil {
			t.Fatal("Start of an in-flight flow did not panic")
		}
	}()
	fb.Start(&f, path, 8*mb, 0, onDone)
}

func TestAccounting(t *testing.T) {
	e, topo, fb := newFabric(t)
	fb.StartFlow(topo.ReadPath(0, 1), 64*mb, 0, nil)
	fb.StartFlow(topo.ReadPath(2, 2), 64*mb, 0, nil)
	e.Run()
	if math.Abs(fb.BytesMoved-128*mb) > 1 {
		t.Fatalf("BytesMoved = %.1f MB, want 128", fb.BytesMoved/mb)
	}
	disk0 := topo.Node(0).Disk
	if math.Abs(fb.LinkBytes(disk0)-64*mb) > 1 {
		t.Fatalf("disk0 bytes = %.1f MB, want 64", fb.LinkBytes(disk0)/mb)
	}
	if fb.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d after drain", fb.ActiveFlows())
	}
}

func TestLinkUtilization(t *testing.T) {
	_, topo, fb := newFabric(t)
	fb.StartFlow(topo.ReadPath(0, 1), 100*mb, 0, nil)
	u := fb.LinkUtilization(topo.Node(0).Disk)
	if math.Abs(u-1.0) > 0.01 {
		t.Fatalf("disk utilization = %.2f, want ~1", u)
	}
	if fb.LinkUtilization(topo.Node(2).Disk) != 0 {
		t.Fatal("idle disk should be at 0 utilization")
	}
}

func TestStartFlowValidation(t *testing.T) {
	_, topo, fb := newFabric(t)
	mustPanic(t, func() { fb.StartFlow(nil, 10, 0, nil) })
	mustPanic(t, func() { fb.StartFlow(topo.ReadPath(0, 1), 0, 0, nil) })
	mustPanic(t, func() { fb.StartFlow(topo.ReadPath(0, 1), -5, 0, nil) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

// Property: work conservation — N equal flows through one shared disk finish
// in N * (bytes/diskBW) seconds regardless of N.
func TestQuickWorkConservation(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%8) + 1
		e := sim.NewEngine()
		topo := topology.New(topology.Config{Racks: 1, NodesPerRack: []int{10}})
		fb := New(e, topo)
		var last time.Duration
		for i := 0; i < n; i++ {
			dst := topology.NodeID((i + 1) % 10)
			fb.StartFlow(topo.ReadPath(0, dst), 80*mb, 0, func(*Flow) {
				if e.Now() > last {
					last = e.Now()
				}
			})
		}
		e.Run()
		want := time.Duration(n) * time.Second
		return (last - want).Abs() < 5*time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: no link is ever allocated beyond its capacity.
func TestQuickCapacityRespected(t *testing.T) {
	f := func(pairs []uint8) bool {
		e := sim.NewEngine()
		topo := topology.New(topology.Config{Racks: 3, NodeCount: 9})
		fb := New(e, topo)
		n := topo.NumNodes()
		for _, p := range pairs {
			src := topology.NodeID(int(p) % n)
			dst := topology.NodeID(int(p/16) % n)
			fb.StartFlow(topo.ReadPath(src, dst), 10*mb, 0, nil)
		}
		// Check every link's aggregate right after admission.
		for _, l := range topo.Links {
			used := fb.LinkUtilization(l.ID)
			if used > 1.0001 {
				return false
			}
		}
		e.Run()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: byte accounting matches the sum of flow sizes exactly (within
// float tolerance) once everything drains.
func TestQuickByteAccounting(t *testing.T) {
	f := func(sizes []uint8) bool {
		e := sim.NewEngine()
		topo := topology.New(topology.Config{Racks: 2, NodeCount: 6})
		fb := New(e, topo)
		var total float64
		for i, s := range sizes {
			bytes := float64(int(s)+1) * mb
			total += bytes
			src := topology.NodeID(i % 6)
			dst := topology.NodeID((i + 1) % 6)
			fb.StartFlow(topo.ReadPath(src, dst), bytes, 0, nil)
		}
		e.Run()
		return math.Abs(fb.BytesMoved-total) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
