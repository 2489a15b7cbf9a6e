package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"erms"
	"erms/internal/core"
	"erms/internal/federation"
)

// statusReport renders the `ermsctl status` output from the system's
// status model (erms.Status, the same one /v1/status serves as JSON): a
// header describing shard 0's namenode and, when the namespace has more
// than one shard, a table with every shard's epoch, namespace size,
// safe-mode state, and repair queue depths.
func statusReport(st erms.Status) string {
	var b strings.Builder
	mode := "OFF"
	if st.SafeMode.On {
		mode = "ON"
	}
	fmt.Fprintf(&b, "== namenode status @ %s ==\n", time.Duration(math.Round(st.NowSeconds*float64(time.Second))))
	fmt.Fprintf(&b, "safe mode:      %s (entries %d, exits %d, rejections %d)\n",
		mode, st.SafeMode.Entries, st.SafeMode.Exits, st.SafeMode.Rejections)
	fmt.Fprintf(&b, "availability:   %.4f of blocks live, %.3f of nodes live\n",
		st.Availability.Blocks, st.Availability.Nodes)
	fmt.Fprintf(&b, "writer epoch:   %d (journal epoch %d, fenced=%v; fenced writes rejected %d)\n",
		st.Epoch.Writer, st.Epoch.Journal, st.Epoch.Fenced, st.Epoch.FencedWritesRejected)
	if r := st.Repair; r != nil {
		fmt.Fprintf(&b, "repair queues: %s\n", tierQueues(r.Queues))
		fmt.Fprintf(&b, "repair pipeline: %d jobs, %d streams in flight (caps: %d cluster-wide, %d per node)\n",
			r.ActiveJobs, r.ActiveStreams, r.MaxStreams, r.MaxStreamsPerNode)
		fmt.Fprintf(&b, "counters:       repairs_deferred=%d repairs_throttled=%d\n", r.Deferred, r.Throttled)
	}
	if len(st.Shards) > 1 {
		fmt.Fprintf(&b, "\n== shards (router v%d, %d-way) ==\n", federation.RouterVersion, len(st.Shards))
		for _, sh := range st.Shards {
			smode := "off"
			if sh.SafeMode {
				smode = "ON"
			}
			fmt.Fprintf(&b, "  shard %d: epoch %d/%d files=%-4d safe=%-3s queues%s\n", sh.Shard,
				sh.Epoch, sh.JournalEpoch, sh.Files, smode, tierQueues(sh.RepairQueues))
		}
	}
	return b.String()
}

// tierQueues renders a repair backlog as " tier=depth" pairs in admission
// priority order (empty without ERMS, which has no repair pipeline).
func tierQueues(q map[string]int) string {
	var b strings.Builder
	for _, name := range core.RepairTierNames() {
		if n, ok := q[name]; ok {
			fmt.Fprintf(&b, " %s=%d", name, n)
		}
	}
	return b.String()
}
