package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"erms/internal/sim"
	"erms/internal/topology"
)

// lifecycleScript drives one fabric through a seeded script of starts,
// cancels, link-factor changes and clock advances — bursts of several
// changes at one instant (from outside any event and from inside one),
// completion callbacks that start a follow-on flow the way a file read
// starts its next block — and returns every completion as "id ns" in
// firing order, followed by the bits of BytesMoved and of each link's byte
// count. It uses nothing but the fabric's public lifecycle, so the same
// script runs at any commit.
func lifecycleScript(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	e := sim.NewEngine()
	topo := topology.New(topology.Config{Racks: 3, NodeCount: 12})
	fb := New(e, topo)
	n := topo.NumNodes()
	var out strings.Builder
	var live []*Flow

	var start func(chain int)
	start = func(chain int) {
		src, dst := topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n))
		var path []topology.LinkID
		switch rng.Intn(4) {
		case 0:
			path = topo.TransferPath(src, dst)
		case 1:
			path = topo.ExternalPath(src)
		default:
			path = topo.ReadPath(src, dst)
		}
		bytes := float64(1+rng.Intn(64)) * mb
		if rng.Intn(4) == 0 {
			bytes = float64(1 + rng.Intn(64<<10)) // a tail block of a few KB
		}
		maxRate := 0.0
		if rng.Intn(3) == 0 {
			maxRate = float64(1+rng.Intn(40)) * mb
		}
		live = append(live, fb.StartFlow(path, bytes, maxRate, func(f *Flow) {
			fmt.Fprintf(&out, "%d %d\n", f.ID(), int64(e.Now()))
			if chain > 0 {
				start(chain - 1)
			}
		}))
	}
	burst := func() {
		switch rng.Intn(6) {
		case 0, 1, 2:
			for k := 1 + rng.Intn(6); k > 0; k-- {
				start(rng.Intn(4))
			}
		case 3:
			for k := 1 + rng.Intn(5); k > 0 && len(live) > 0; k-- {
				fb.Cancel(live[rng.Intn(len(live))]) // finished flows are a no-op
			}
		case 4:
			factors := []float64{0.1, 0.25, 0.5, 1, 1}
			fb.SetLinkFactor(topology.LinkID(rng.Intn(len(topo.Links))), factors[rng.Intn(len(factors))])
		case 5:
			start(1)
			fb.Cancel(live[rng.Intn(len(live))])
			fb.SetLinkFactor(topo.Node(topology.NodeID(rng.Intn(n))).Disk, 0.5)
			start(0)
		}
	}
	for step := 0; step < 150; step++ {
		if rng.Intn(3) == 0 {
			// The same burst from inside an event, at an odd nanosecond.
			e.Schedule(time.Duration(rng.Int63n(int64(300*time.Millisecond))), burst)
		} else {
			burst()
		}
		switch rng.Intn(4) {
		case 0: // stay at this instant: the next burst lands on the same nanosecond
			e.RunFor(0)
		case 1:
			e.RunFor(time.Duration(1 + rng.Int63n(1000)))
		default:
			e.RunFor(time.Duration(rng.Int63n(int64(400 * time.Millisecond))))
		}
	}
	e.Run()
	fmt.Fprintf(&out, "moved %016x active %d\n", math.Float64bits(fb.BytesMoved), fb.ActiveFlows())
	for _, l := range topo.Links {
		fmt.Fprintf(&out, "link %d %016x\n", l.ID, math.Float64bits(fb.LinkBytes(l.ID)))
	}
	return out.String()
}

// TestLifecycleGolden holds the fabric to the completions and byte counts
// of the per-change allocator it replaced: testdata/lifecycle.golden was
// recorded at bc2ae91 (the commit before rates were coalesced per instant)
// by this same script, and there is no -update path — a change that moves
// a completion by a nanosecond or one bit of a byte count has changed the
// simulator's results, which no rate-allocation optimisation may do.
func TestLifecycleGolden(t *testing.T) {
	var got strings.Builder
	for seed := int64(1); seed <= 4; seed++ {
		fmt.Fprintf(&got, "# seed %d\n%s", seed, lifecycleScript(seed))
	}
	want, err := os.ReadFile("testdata/lifecycle.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("line %d: got %q, golden differs (%d vs %d lines)", i+1, gl[i], len(gl), len(wl))
			}
		}
		t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
	}
}
