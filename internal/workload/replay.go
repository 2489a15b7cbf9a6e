package workload

import (
	"time"

	"erms/internal/hdfs"
	"erms/internal/mapred"
	"erms/internal/sim"
	"erms/internal/topology"
)

// ScheduleCreate turns one trace file into an hdfs create on h, the
// cluster that owns its path, at virtual time base+CreateAt. A file due at
// or before time zero is created at once: it exists before the replay
// starts, ahead of every event. Any other create is an event at its
// instant, so a replay anchored mid-run (the HTTP trace endpoint) applies
// nothing inside the request that posts it. ordinal is the file's index in
// its trace; the writer node is derived from it, spreading first replicas
// over the cluster. Replication is the cluster default.
func ScheduleCreate(engine *sim.Engine, h *hdfs.Cluster, base time.Duration, ordinal int, f FileSpec) {
	writer := topology.NodeID(ordinal % h.NumDatanodes())
	create := func() {
		// Ignore duplicate errors: a re-run over the same cluster keeps
		// the original file.
		_, _ = h.CreateFile(f.Path, f.Size, 0, writer)
	}
	if at := base + f.CreateAt; at > 0 {
		engine.At(at, create)
	} else {
		create()
	}
}

// ScheduleRead turns one trace job into a direct client read on h, the
// cluster that owns its file, at base+Submit: a ranged read of
// [Offset, Offset+Length) when Length > 0, else a whole-file read (no
// MapReduce layer, as the paper does for the system-metric experiments:
// "we directly read data from HDFS instead of by Map/Reduce framework").
// onDone (optional) observes the completed read.
func ScheduleRead(engine *sim.Engine, h *hdfs.Cluster, base time.Duration, js JobSpec, onDone func(*hdfs.ReadResult)) {
	engine.At(base+js.Submit, func() {
		client := topology.NodeID(js.Client % h.NumDatanodes())
		if js.Length > 0 {
			h.ReadRange(client, js.File, js.Offset, js.Length, onDone)
		} else {
			h.ReadFile(client, js.File, onDone)
		}
	})
}

// Preload creates every file of the trace in one cluster at trace time
// (base 0); see ScheduleCreate.
func Preload(engine *sim.Engine, h *hdfs.Cluster, t *Trace) {
	for i, f := range t.Files {
		ScheduleCreate(engine, h, 0, i, f)
	}
}

// ReplayReads issues every job of the trace against one cluster at trace
// time (base 0); see ScheduleRead. onDone observes each completed read.
func ReplayReads(engine *sim.Engine, h *hdfs.Cluster, t *Trace, onDone func(*hdfs.ReadResult)) {
	for _, js := range t.Jobs {
		ScheduleRead(engine, h, 0, js, onDone)
	}
}

// ReplayMapReduce submits the trace's jobs to the MapReduce runtime at
// their trace times. onDone (optional) observes each finished job.
func ReplayMapReduce(engine *sim.Engine, mr *mapred.Cluster, t *Trace, onDone func(*mapred.Job)) {
	if onDone != nil {
		mr.OnJobDone(onDone)
	}
	for _, js := range t.Jobs {
		js := js
		engine.At(js.Submit, func() {
			j := &mapred.Job{
				Name:         js.Name,
				File:         js.File,
				ComputePerMB: js.Compute,
			}
			// Missing input (file created later than this access due to a
			// hand-edited trace) is skipped rather than fatal.
			_ = mr.Submit(j)
		})
	}
}

// Horizon returns a virtual-time horizon safely beyond the trace end, for
// RunUntil calls (trace duration plus slack for stragglers).
func (t *Trace) Horizon(slack time.Duration) time.Duration {
	return t.Duration + slack
}
