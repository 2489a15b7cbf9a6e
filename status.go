package erms

import "erms/internal/core"

// Status is the operator's view of a deployment, assembled by
// System.Status in one walk over the shards. It is both renderers' only
// source: internal/server embeds it in the GET /v1/status body (the JSON
// tags are that wire format) and `ermsctl status` prints it as text.
type Status struct {
	// Mode is "service" when the system is paced by a wall clock,
	// "simulation" when only explicit RunFor advances time.
	Mode string `json:"mode"`
	// NowSeconds is the current virtual time.
	NowSeconds float64 `json:"now_seconds"`
	// PendingEvents is the engine's live calendar size — what drain
	// watchers poll.
	PendingEvents int `json:"pending_events"`
	// Files, LiveBlocks and StorageUsedGB size the namespace, summed
	// across shards.
	Files         int     `json:"files"`
	LiveBlocks    int     `json:"live_blocks"`
	StorageUsedGB float64 `json:"storage_used_gb"`
	// SafeMode, Availability, Epoch and Repair describe shard 0's
	// namenode — with one shard, the namenode — except the counters, which
	// are summed across shards like Metrics().
	SafeMode     SafeModeStatus     `json:"safe_mode"`
	Availability AvailabilityStatus `json:"availability"`
	Epoch        EpochStatus        `json:"epoch"`
	// Repair is nil when DisableERMS was set: repairs are the manager's job.
	Repair *RepairStatus `json:"repair,omitempty"`
	// Shards holds one row per shard, in shard order. Renderers leave the
	// table out when it has one row, which the header already covers.
	Shards []ShardStatus `json:"shards,omitempty"`
}

// SafeModeStatus is the namenode safe-mode block of a Status.
type SafeModeStatus struct {
	// On reports whether mutations are currently rejected.
	On bool `json:"on"`
	// Entries / Exits / Rejections mirror the safe-mode counters.
	Entries    int `json:"entries"`
	Exits      int `json:"exits"`
	Rejections int `json:"rejections"`
}

// AvailabilityStatus is the block/node availability pair the safe-mode
// thresholds watch.
type AvailabilityStatus struct {
	// Blocks is the fraction of blocks with at least one live replica.
	Blocks float64 `json:"blocks"`
	// Nodes is the fraction of datanodes currently live.
	Nodes float64 `json:"nodes"`
}

// EpochStatus is the journal-fencing block of a Status.
type EpochStatus struct {
	// Writer is this namenode's writer epoch; Journal is the attached
	// journal's (0 when no journal is attached). The writer is fenced
	// when they disagree.
	Writer  uint64 `json:"writer"`
	Journal uint64 `json:"journal"`
	// Fenced reports whether this writer's mutations are being rejected.
	Fenced bool `json:"fenced"`
	// FencedWritesRejected counts mutations bounced with ErrFenced.
	FencedWritesRejected int `json:"fenced_writes_rejected"`
}

// RepairStatus is the prioritized-repair-pipeline block of a Status.
type RepairStatus struct {
	// Queues is the per-tier backlog depth, keyed by tier name
	// (core.RepairTierNames gives the admission-priority order).
	Queues map[string]int `json:"queues"`
	// ActiveJobs / ActiveStreams are the pipeline's current occupancy;
	// MaxStreams / MaxStreamsPerNode are its caps.
	ActiveJobs        int `json:"active_jobs"`
	ActiveStreams     int `json:"active_streams"`
	MaxStreams        int `json:"max_streams"`
	MaxStreamsPerNode int `json:"max_streams_per_node"`
	// Deferred / Throttled count repairs held back by safe mode and by the
	// stream caps. /v1/status leaves them to /metrics (erms_repairs_*).
	Deferred  int `json:"-"`
	Throttled int `json:"-"`
}

// ShardStatus is one row of a Status's shard table.
type ShardStatus struct {
	// Shard is the shard index under the pinned hash router.
	Shard int `json:"shard"`
	// Epoch / JournalEpoch mirror EpochStatus for this shard.
	Epoch        uint64 `json:"epoch"`
	JournalEpoch uint64 `json:"journal_epoch"`
	// Files is the shard's namespace size.
	Files int `json:"files"`
	// SafeMode reports the shard's namenode safe-mode state.
	SafeMode bool `json:"safe_mode"`
	// RepairQueues is the shard's per-tier repair backlog (nil without
	// ERMS).
	RepairQueues map[string]int `json:"repair_queues"`
}

// Status assembles the deployment's status model.
func (s *System) Status() Status {
	st := Status{
		Mode:          "simulation",
		NowSeconds:    s.Now().Seconds(),
		PendingEvents: s.engine.Pending(),
	}
	if s.wall != nil {
		st.Mode = "service"
	}
	var cm HDFSMetrics
	var used float64
	for i, sh := range s.shards {
		c := sh.cluster
		row := ShardStatus{Shard: i, Epoch: c.Epoch(), Files: c.Files(), SafeMode: c.InSafeMode()}
		if j := c.Journal(); j != nil {
			row.JournalEpoch = j.Epoch()
		}
		if m := sh.manager; m != nil {
			row.RepairQueues = make(map[string]int)
			depths := m.RepairQueueDepths()
			for t, name := range core.RepairTierNames() {
				row.RepairQueues[name] = depths[t]
			}
		}
		st.Shards = append(st.Shards, row)
		st.Files += row.Files
		st.LiveBlocks += c.LiveBlocks()
		used += c.TotalUsed()
		cm = cm.Add(c.Metrics())
	}
	st.StorageUsedGB = used / GB

	c, head := s.shards[0].cluster, st.Shards[0]
	st.SafeMode = SafeModeStatus{
		On:         head.SafeMode,
		Entries:    cm.SafeModeEntries,
		Exits:      cm.SafeModeExits,
		Rejections: cm.SafeModeRejections,
	}
	st.Availability = AvailabilityStatus{Blocks: c.BlockAvailability(), Nodes: c.LiveNodeFraction()}
	st.Epoch = EpochStatus{
		Writer:               head.Epoch,
		Journal:              head.JournalEpoch,
		Fenced:               c.Fenced(),
		FencedWritesRejected: cm.FencedWritesRejected,
	}
	if m := s.shards[0].manager; m != nil {
		caps, stats := m.RepairCaps(), m.Stats()
		st.Repair = &RepairStatus{
			Queues:            head.RepairQueues,
			ActiveJobs:        m.ActiveRepairJobs(),
			ActiveStreams:     m.ActiveRepairStreams(),
			MaxStreams:        caps.MaxStreams,
			MaxStreamsPerNode: caps.MaxStreamsPerNode,
			Deferred:          stats.RepairsDeferred,
			Throttled:         stats.RepairsThrottled,
		}
	}
	return st
}
