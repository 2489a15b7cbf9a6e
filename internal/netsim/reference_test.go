package netsim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"erms/internal/sim"
	"erms/internal/topology"
)

// referenceComputeRates is computeRates as it stood at bc2ae91, verbatim:
// the touched-link list sorted before use and the cap scan run every round.
// It is the oracle the production allocator must match bit for bit; keep it
// unoptimised.
func (fb *Fabric) referenceComputeRates() {
	flows := fb.flows // ascending id: fixed visit order keeps the float math reproducible
	residual := fb.crResidual
	nActive := fb.crActive
	seen := fb.crSeen
	touched := fb.crTouched[:0]
	if cap(fb.crFrozen) < len(flows) {
		fb.crFrozen = make([]bool, len(flows))
	}
	frozen := fb.crFrozen[:len(flows)]
	for i := range frozen {
		frozen[i] = false
	}
	for _, f := range flows {
		f.rate = 0
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
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
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
		for i, f := range flows {
			if frozen[i] || f.maxRate <= 0 {
				continue
			}
			if f.maxRate < capBind {
				capBind = f.maxRate
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

// TestComputeRatesMatchesReference: on seeded random flow sets — capped and
// uncapped flows, paths that revisit a link, degraded links, +Inf links,
// capacities from a few bytes/s to hundreds of MB/s — the allocator gives
// every flow the reference's rate, compared with ==.
func TestComputeRatesMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nLinks := 1 + rng.Intn(24)
		links := make([]topology.Link, nLinks)
		for i := range links {
			c := float64(1+rng.Intn(400)) * mb
			switch rng.Intn(8) {
			case 0:
				if i > 0 { // link 0 stays finite, see below
					c = math.Inf(1)
				}
			case 1:
				c = float64(1+rng.Intn(1000)) / 7 // a few bytes/s, not a round number
			}
			links[i] = topology.Link{ID: topology.LinkID(i), Capacity: c}
		}
		fb := New(sim.NewEngine(), &topology.Topology{Links: links})
		for i := range links {
			if rng.Intn(5) == 0 {
				fb.SetLinkFactor(topology.LinkID(i), []float64{0.1, 0.3, 1e-13, 2.5}[rng.Intn(4)])
			}
		}
		withCaps := rng.Intn(3) > 0 // a third of the sets take the no-capped-flow shortcut
		for k := rng.Intn(60); k >= 0; k-- {
			path := make([]topology.LinkID, 1+rng.Intn(6))
			for i := range path {
				path[i] = topology.LinkID(rng.Intn(nLinks)) // may revisit a link
			}
			if unbounded(links, path) {
				// A flow that nothing constrains never freezes, in the reference
				// as in the allocator; no topology builds one.
				path[0] = 0
			}
			maxRate := 0.0
			if withCaps && rng.Intn(3) == 0 {
				maxRate = float64(1+rng.Intn(1<<20)) * float64(1+rng.Intn(100)) / 3
			}
			fb.StartFlow(path, float64(1+rng.Intn(1<<26)), maxRate, nil)
		}
		fb.computeRates()
		got := make([]float64, len(fb.flows))
		for i, f := range fb.flows {
			got[i] = f.rate
		}
		fb.referenceComputeRates()
		for i, f := range fb.flows {
			if got[i] != f.rate {
				t.Fatalf("seed %d flow %d (cap %v, path %v): rate %v, reference %v",
					seed, f.id, f.maxRate, f.path, got[i], f.rate)
			}
		}
	}
}

func unbounded(links []topology.Link, path []topology.LinkID) bool {
	for _, l := range path {
		if !math.IsInf(links[l].Capacity, 1) {
			return false
		}
	}
	return true
}
