package chaos

import (
	"sort"
	"time"

	"erms/internal/hdfs"
	"erms/internal/sim"
)

// StormConfig parameterizes a random fault storm. Every field that is a
// count is a target number of fault *pairs* (a crash comes with its
// restart, a partition with its heal, a slowdown with its restore), so a
// storm never leaves permanent damage behind by construction — permanent
// faults belong in a hand-written Plan.
type StormConfig struct {
	// Seed drives all randomness; equal seeds give equal plans.
	Seed int64
	// Duration is the window faults are spread over.
	Duration time.Duration
	// Nodes are the candidate victims for crashes and slowdowns.
	Nodes []hdfs.DatanodeID
	// Racks are the candidate victims for partitions.
	Racks []int

	// Crashes is the number of crash+restart pairs.
	Crashes int
	// Downtime is how long a crashed node stays down before its restart
	// (jittered ±50%); default 10 minutes.
	Downtime time.Duration
	// MaxConcurrentDown bounds how many storm-crashed nodes may be down at
	// once, so a small cluster is not annihilated; default 2.
	MaxConcurrentDown int

	// Partitions is the number of partition+heal pairs, each lasting
	// partitionHeal.
	Partitions int

	// Corruptions is the number of silent replica corruptions.
	Corruptions int

	// SlowNodes is the number of slowdown+restore pairs: slowFactor of
	// the node's capacity for slowFor.
	SlowNodes int

	// RackOutages is the number of correlated whole-rack outages: the rack
	// is partitioned long enough for the namenode to declare its nodes dead,
	// then healed and power-cycled (RestartRack) shortly after.
	RackOutages int
	// RackOutageFor is how long an outage lasts before the heal (jittered
	// ±50%); default 8 minutes — comfortably past typical dead timeouts.
	RackOutageFor time.Duration

	// FlapNodes is the number of heartbeat-flapping episodes: a node's
	// heartbeats stall (it ages toward stale/dead while still serving) and
	// resume after flapFor.
	FlapNodes int

	// ZombiePrimaries is the number of fenced-writer drills (ZombiePrimary
	// events). They are skipped on a cluster with no journal.
	ZombiePrimaries int
}

const (
	// partitionHeal is how long a rack stays cut off (jittered ±50%).
	partitionHeal = 2 * time.Minute
	// slowFactor is a slowed node's degraded capacity multiplier.
	slowFactor = 0.1
	// slowFor is how long a node stays degraded (jittered ±50%).
	slowFor = 5 * time.Minute
	// flapFor is how long heartbeats stay suppressed (jittered ±50%):
	// long enough to go stale, short of dead.
	flapFor = 45 * time.Second
)

func (cfg *StormConfig) applyDefaults() {
	if cfg.Duration <= 0 {
		cfg.Duration = time.Hour
	}
	if cfg.Downtime <= 0 {
		cfg.Downtime = 10 * time.Minute
	}
	if cfg.MaxConcurrentDown <= 0 {
		cfg.MaxConcurrentDown = 2
	}
	if cfg.RackOutageFor <= 0 {
		cfg.RackOutageFor = 8 * time.Minute
	}
}

// Storm generates a random fault plan from the config. The plan is a pure
// function of the config (including Seed): generation draws from one
// seeded stream in a fixed order, and the result is sorted by time with a
// stable tie-break, so identical configs yield byte-identical plans.
func Storm(cfg StormConfig) *Plan {
	cfg.applyDefaults()
	rng := sim.NewRand(cfg.Seed)
	var events []Event

	jitter := func(d time.Duration) time.Duration {
		// ±50%, strictly positive.
		return time.Duration(float64(d) * (0.5 + float64(rng.Float64())))
	}
	at := func() time.Duration {
		return time.Duration(rng.Int63n(int64(cfg.Duration)))
	}

	// Crash+restart pairs, packed greedily under the concurrency bound:
	// candidate windows are drawn, then accepted only while fewer than
	// MaxConcurrentDown accepted windows overlap.
	type window struct{ start, end time.Duration }
	var accepted []window
	overlaps := func(w window) int {
		n := 0
		for _, o := range accepted {
			if w.start < o.end && o.start < w.end {
				n++
			}
		}
		return n
	}
	if len(cfg.Nodes) > 0 {
		placed := 0
		for tries := 0; placed < cfg.Crashes && tries < cfg.Crashes*20; tries++ {
			start := at()
			w := window{start: start, end: start + jitter(cfg.Downtime)}
			if overlaps(w) >= cfg.MaxConcurrentDown {
				continue
			}
			node := cfg.Nodes[rng.Intn(len(cfg.Nodes))]
			// One node cannot crash twice while still down: reject windows
			// overlapping an accepted window only if same node is cheaper
			// to just re-draw the node; keep it simple and allow it — the
			// Crash event no-ops (Skipped) on an already-down node.
			accepted = append(accepted, w)
			events = append(events,
				Event{At: w.start, Kind: Crash, Node: node},
				Event{At: w.end, Kind: Restart, Node: node},
			)
			placed++
		}
	}

	if len(cfg.Racks) > 0 {
		for i := 0; i < cfg.Partitions; i++ {
			start := at()
			rack := cfg.Racks[rng.Intn(len(cfg.Racks))]
			events = append(events,
				Event{At: start, Kind: PartitionRack, Rack: rack},
				Event{At: start + jitter(partitionHeal), Kind: HealRack, Rack: rack},
			)
		}
	}

	for i := 0; i < cfg.Corruptions; i++ {
		events = append(events, Event{
			At:             at(),
			Kind:           CorruptReplica,
			BlockOrdinal:   rng.Intn(1 << 20),
			ReplicaOrdinal: rng.Intn(1 << 10),
		})
	}

	if len(cfg.Nodes) > 0 {
		for i := 0; i < cfg.SlowNodes; i++ {
			start := at()
			node := cfg.Nodes[rng.Intn(len(cfg.Nodes))]
			events = append(events,
				Event{At: start, Kind: SlowNode, Node: node, Factor: slowFactor},
				Event{At: start + jitter(slowFor), Kind: RestoreNode, Node: node},
			)
		}
	}

	// Correlated rack outage: partition, heal well past the dead timeout,
	// then power-cycle whatever the namenode declared dead. Each knob draws
	// after everything older, so adding one leaves the fault schedule of an
	// equal-seed storm without it unchanged.
	if len(cfg.Racks) > 0 {
		for i := 0; i < cfg.RackOutages; i++ {
			start := at()
			rack := cfg.Racks[rng.Intn(len(cfg.Racks))]
			heal := start + jitter(cfg.RackOutageFor)
			events = append(events,
				Event{At: start, Kind: PartitionRack, Rack: rack},
				Event{At: heal, Kind: HealRack, Rack: rack},
				Event{At: heal + 30*time.Second, Kind: RestartRack, Rack: rack},
			)
		}
	}

	// Heartbeat flapping: stall+unstall pairs.
	if len(cfg.Nodes) > 0 {
		for i := 0; i < cfg.FlapNodes; i++ {
			start := at()
			node := cfg.Nodes[rng.Intn(len(cfg.Nodes))]
			events = append(events,
				Event{At: start, Kind: MuteNode, Node: node},
				Event{At: start + jitter(flapFor), Kind: UnmuteNode, Node: node},
			)
		}
	}

	for i := 0; i < cfg.ZombiePrimaries; i++ {
		events = append(events, Event{At: at(), Kind: ZombiePrimary})
	}

	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return &Plan{Events: events}
}
