// Package mapred models the Hadoop MapReduce execution layer the paper's
// Figure 3 exercises: jobs decompose into map tasks (one per input block),
// tasktrackers expose a fixed number of map slots per node, and a pluggable
// scheduler (FIFO or Fair with delay scheduling) assigns tasks to free
// slots, preferring data-local execution. Each task reads its block through
// the simulated HDFS (contending for disks, NICs and sessions) and then
// computes for a configurable per-MB cost.
package mapred

import (
	"fmt"
	"sort"
	"time"

	"erms/internal/hdfs"
	"erms/internal/topology"
)

// Job is one MapReduce job reading a single input file.
type Job struct {
	ID     int
	Name   string
	File   string
	Weight float64 // fair-share weight; default 1

	// ComputePerMB is map-side compute cost per input MB (beyond the read).
	ComputePerMB time.Duration

	// Reducers, when positive, adds a reduce stage: after the last map
	// task, each reducer fetches its shuffle partition (SelectivityPct% of
	// the input, split evenly) from the map nodes over the network, then
	// computes for ReducePerMB per fetched MB. Zero keeps the job map-only.
	Reducers int
	// SelectivityPct is the map output volume as a percentage of the input
	// (default 20 — typical aggregation jobs shrink their data).
	SelectivityPct float64
	// ReducePerMB is reduce-side compute cost per shuffled MB.
	ReducePerMB time.Duration

	SubmitTime time.Duration
	StartTime  time.Duration
	EndTime    time.Duration
	Done       bool
	Err        error

	// Speculative enables backup attempts for straggler tasks (Hadoop's
	// speculative execution): once a job is out of pending work, a task
	// that has run more than twice the job's mean task time gets a
	// duplicate attempt on another node; the first finisher wins.
	Speculative bool
	// SpeculativeLaunched counts backup attempts started.
	SpeculativeLaunched int
	// SpeculativeWon counts tasks whose backup finished first.
	SpeculativeWon int

	pending   []hdfs.BlockID
	running   int
	completed int
	total     int
	attempts  map[hdfs.BlockID]*taskAttempt
	taskSecs  float64 // summed completed-task durations
	// mapNodes records how much map output each node produced, feeding the
	// shuffle.
	mapNodes map[topology.NodeID]float64
	reducing int
	// ShuffledBytes totals the data moved by the shuffle.
	ShuffledBytes float64

	NodeLocalTasks int
	RackLocalTasks int
	RemoteTasks    int
	BytesRead      float64
	// ReadSeconds accumulates per-task read time, for read-throughput
	// metrics isolated from compute.
	ReadSeconds float64
}

// Duration returns the job's makespan (submit to finish).
func (j *Job) Duration() time.Duration { return j.EndTime - j.SubmitTime }

// LocalityFraction returns the fraction of tasks that ran node-local.
func (j *Job) LocalityFraction() float64 {
	if j.total == 0 {
		return 0
	}
	return float64(j.NodeLocalTasks) / float64(j.total)
}

// ReadThroughputMBps returns the job's aggregate read throughput: bytes
// read divided by time spent reading (summed across tasks).
func (j *Job) ReadThroughputMBps() float64 {
	if j.ReadSeconds <= 0 {
		return 0
	}
	return j.BytesRead / topology.MB / j.ReadSeconds
}

// Tasks returns the total task count.
func (j *Job) Tasks() int { return j.total }

// Scheduler picks the next task for a free map slot.
type Scheduler interface {
	Name() string
	// Pick returns the job whose task should run on node, and the chosen
	// block, or ok=false when no job wants the slot. jobs are the live
	// (incomplete) jobs in submission order.
	Pick(c *Cluster, node topology.NodeID, jobs []*Job) (*Job, hdfs.BlockID, bool)
}

// Cluster is the MapReduce runtime bound to a simulated HDFS cluster.
type Cluster struct {
	hdfs         *hdfs.Cluster
	slotsPerNode int
	sched        Scheduler
	free         map[topology.NodeID]int
	jobs         []*Job
	nextID       int
	onDone       []func(*Job)
	dispatching  bool
}

// New builds a MapReduce runtime with slotsPerNode map slots on every
// datanode (default 2, the Hadoop-era norm for dual-core nodes).
func New(h *hdfs.Cluster, slotsPerNode int, sched Scheduler) *Cluster {
	if slotsPerNode <= 0 {
		slotsPerNode = 2
	}
	if sched == nil {
		sched = NewFIFO()
	}
	c := &Cluster{hdfs: h, slotsPerNode: slotsPerNode, sched: sched,
		free: make(map[topology.NodeID]int)}
	for _, n := range h.Topology().Nodes {
		c.free[n.ID] = slotsPerNode
	}
	return c
}

// HDFS returns the underlying storage cluster.
func (c *Cluster) HDFS() *hdfs.Cluster { return c.hdfs }

// Scheduler returns the active scheduler.
func (c *Cluster) Scheduler() Scheduler { return c.sched }

// Jobs returns every submitted job.
func (c *Cluster) Jobs() []*Job { return c.jobs }

// OnJobDone registers a completion callback.
func (c *Cluster) OnJobDone(fn func(*Job)) { c.onDone = append(c.onDone, fn) }

// Submit queues a job; its map tasks are one per block of the input file.
func (c *Cluster) Submit(j *Job) error {
	f := c.hdfs.File(j.File)
	if f == nil {
		return fmt.Errorf("mapred: input %q does not exist", j.File)
	}
	if j.Weight <= 0 {
		j.Weight = 1
	}
	if j.Reducers > 0 && j.SelectivityPct <= 0 {
		j.SelectivityPct = 20
	}
	c.nextID++
	j.ID = c.nextID
	j.SubmitTime = c.hdfs.Clock().Now()
	j.pending = append([]hdfs.BlockID(nil), f.Blocks...)
	j.total = len(j.pending)
	j.mapNodes = make(map[topology.NodeID]float64)
	j.attempts = make(map[hdfs.BlockID]*taskAttempt)
	c.jobs = append(c.jobs, j)
	c.dispatch()
	return nil
}

// RunningTasks returns the number of map tasks executing now.
func (c *Cluster) RunningTasks() int {
	n := 0
	for _, j := range c.jobs {
		n += j.running
	}
	return n
}

// live returns incomplete jobs in submission order.
func (c *Cluster) live() []*Job {
	var out []*Job
	for _, j := range c.jobs {
		if !j.Done && (len(j.pending) > 0 || j.running > 0) {
			out = append(out, j)
		}
	}
	return out
}

// bestBlockFor returns j's pending block with the best locality for node:
// node-local, then rack-local, then the first pending block.
func (c *Cluster) bestBlockFor(j *Job, node topology.NodeID) (hdfs.BlockID, int) {
	bestIdx := -1
	bestTier := 3
	for i, bid := range j.pending {
		tier := 2
		for _, r := range c.hdfs.Replicas(bid) {
			if c.hdfs.Datanode(r).State != hdfs.StateActive {
				continue
			}
			if topology.NodeID(r) == node {
				tier = 0
				break
			}
			if c.hdfs.Topology().SameRack(topology.NodeID(r), node) && tier > 1 {
				tier = 1
			}
		}
		if tier < bestTier {
			bestTier = tier
			bestIdx = i
		}
		if bestTier == 0 {
			break
		}
	}
	if bestIdx < 0 {
		return 0, 3
	}
	return j.pending[bestIdx], bestTier
}

// takeBlock removes bid from j's pending list.
func (j *Job) takeBlock(bid hdfs.BlockID) {
	for i, b := range j.pending {
		if b == bid {
			j.pending = append(j.pending[:i], j.pending[i+1:]...)
			return
		}
	}
}

// dispatch assigns free slots until no scheduler makes progress. It guards
// against re-entry (task completions call it again).
func (c *Cluster) dispatch() {
	if c.dispatching {
		return
	}
	c.dispatching = true
	defer func() { c.dispatching = false }()
	for {
		progress := false
		live := c.live()
		if len(live) == 0 {
			return
		}
		for _, n := range c.hdfs.Topology().Nodes {
			node := n.ID
			for c.free[node] > 0 {
				j, bid, ok := c.sched.Pick(c, node, c.live())
				if ok {
					c.launch(j, bid, node, false)
					progress = true
					continue
				}
				// No regular work for this slot: consider a speculative
				// backup for a straggler.
				if sj, sbid, sok := c.pickSpeculative(node); sok {
					c.launch(sj, sbid, node, true)
					progress = true
					continue
				}
				break
			}
		}
		if !progress {
			// Starvation guard: a delay-scheduling policy may decline every
			// slot hoping for locality. If nothing at all is running, force
			// the first pending task onto the first free slot so the
			// simulation always advances.
			if c.RunningTasks() == 0 {
				for _, n := range c.hdfs.Topology().Nodes {
					if c.free[n.ID] <= 0 {
						continue
					}
					for _, j := range c.live() {
						if len(j.pending) > 0 {
							bid, _ := c.bestBlockFor(j, n.ID)
							c.launch(j, bid, n.ID, false)
							progress = true
							break
						}
					}
					if progress {
						break
					}
				}
			}
			if !progress {
				return
			}
		}
	}
}

// taskAttempt tracks one block's execution (and its optional speculative
// backup).
type taskAttempt struct {
	start  time.Duration
	node   topology.NodeID // node running the primary attempt
	done   bool
	backup bool // a backup attempt has been launched
}

// launch runs one map task attempt on node: read the block, then compute.
// backup marks a speculative duplicate of an already-running task.
func (c *Cluster) launch(j *Job, bid hdfs.BlockID, node topology.NodeID, backup bool) {
	if j.StartTime == 0 && j.running == 0 && j.completed == 0 {
		j.StartTime = c.hdfs.Clock().Now()
	}
	att := j.attempts[bid]
	if backup {
		att.backup = true
		j.SpeculativeLaunched++
	} else {
		j.takeBlock(bid)
		att = &taskAttempt{start: c.hdfs.Clock().Now(), node: node}
		j.attempts[bid] = att
	}
	j.running++
	c.free[node]--
	readStart := c.hdfs.Clock().Now()
	c.hdfs.ReadBlock(node, bid, func(bytes float64, loc hdfs.Locality, err error) {
		if att.done {
			c.finishLoser(j, node)
			return
		}
		if err != nil {
			att.done = true
			c.finishTask(j, node, err)
			return
		}
		readSecs := (c.hdfs.Clock().Now() - readStart).Seconds()
		compute := time.Duration(float64(j.ComputePerMB) * bytes / topology.MB)
		c.hdfs.Clock().Schedule(compute, func() {
			if att.done {
				c.finishLoser(j, node)
				return
			}
			att.done = true
			// Winner's statistics only.
			j.BytesRead += bytes
			j.ReadSeconds += readSecs
			switch loc {
			case hdfs.NodeLocal:
				j.NodeLocalTasks++
			case hdfs.RackLocal:
				j.RackLocalTasks++
			default:
				j.RemoteTasks++
			}
			j.mapNodes[node] += bytes * j.SelectivityPct / 100
			j.taskSecs += (c.hdfs.Clock().Now() - att.start).Seconds()
			if backup {
				j.SpeculativeWon++
			}
			c.finishTask(j, node, nil)
		})
	})
}

// finishLoser retires the losing attempt of a task whose other attempt
// already won: the slot frees, nothing else is recorded.
func (c *Cluster) finishLoser(j *Job, node topology.NodeID) {
	j.running--
	c.free[node]++
	c.dispatch()
}

func (c *Cluster) finishTask(j *Job, node topology.NodeID, err error) {
	j.running--
	j.completed++
	c.free[node]++
	if err != nil && j.Err == nil {
		j.Err = err
	}
	if j.completed == j.total && len(j.pending) == 0 && !j.Done && j.reducing == 0 {
		if j.Reducers > 0 && j.Err == nil {
			c.startShuffle(j)
		} else {
			c.completeJob(j)
		}
	}
	c.dispatch()
	if j.Speculative && !j.Done && len(j.pending) == 0 {
		c.scheduleSpeculationCheck(j)
	}
}

// scheduleSpeculationCheck arms a dispatch at the instant the job's
// slowest running attempt crosses the 2x-mean straggler threshold, so a
// quiet cluster still notices stragglers.
func (c *Cluster) scheduleSpeculationCheck(j *Job) {
	mean := j.meanTaskSecs()
	if mean <= 0 {
		return
	}
	now := c.hdfs.Clock().Now()
	var earliest time.Duration = -1
	for _, att := range j.attempts {
		if att.done || att.backup {
			continue
		}
		at := att.start + time.Duration(2*mean*float64(time.Second))
		if earliest < 0 || at < earliest {
			earliest = at
		}
	}
	if earliest < 0 {
		return
	}
	delay := earliest - now + time.Millisecond
	if delay < 0 {
		delay = 0
	}
	c.hdfs.Clock().Schedule(delay, c.dispatch)
}

func (c *Cluster) completeJob(j *Job) {
	if j.Done {
		return
	}
	j.Done = true
	j.EndTime = c.hdfs.Clock().Now()
	for _, fn := range c.onDone {
		fn(j)
	}
	c.dispatch()
}

// meanTaskSecs returns the mean duration of the job's completed tasks
// (0 until one completes).
func (j *Job) meanTaskSecs() float64 {
	if j.completed == 0 {
		return 0
	}
	return j.taskSecs / float64(j.completed)
}

// pickSpeculative finds a straggler worth duplicating on node: the job has
// no pending work, the task's attempt has run more than twice the job's
// mean task time, no backup exists yet — and crucially, node holds another
// replica of the block, so the backup is guaranteed to read a different
// disk than the one the straggler is stuck on.
func (c *Cluster) pickSpeculative(node topology.NodeID) (*Job, hdfs.BlockID, bool) {
	now := c.hdfs.Clock().Now()
	d := c.hdfs.Datanode(hdfs.DatanodeID(node))
	if d.State != hdfs.StateActive {
		return nil, 0, false
	}
	for _, j := range c.live() {
		if !j.Speculative || len(j.pending) > 0 {
			continue
		}
		mean := j.meanTaskSecs()
		if mean <= 0 {
			continue
		}
		var blocks []hdfs.BlockID
		for bid := range j.attempts {
			blocks = append(blocks, bid)
		}
		sort.Slice(blocks, func(a, b int) bool { return blocks[a] < blocks[b] })
		for _, bid := range blocks {
			att := j.attempts[bid]
			if att.done || att.backup || att.node == node || !d.HasBlock(bid) {
				continue
			}
			if (now - att.start).Seconds() > 2*mean {
				return j, bid, true
			}
		}
	}
	return nil, 0, false
}

// startShuffle runs the reduce stage: each reducer (placed round-robin on
// active nodes) fetches its 1/R share of every map node's output over the
// network, then computes. Reducers run concurrently; the job finishes when
// the last one does.
func (c *Cluster) startShuffle(j *Job) {
	h := c.hdfs
	nodes := h.Active()
	if len(nodes) == 0 {
		j.Err = fmt.Errorf("mapred: no active nodes for reducers")
		c.completeJob(j)
		return
	}
	j.reducing = j.Reducers
	for r := 0; r < j.Reducers; r++ {
		reducer := topology.NodeID(nodes[r%len(nodes)])
		// Fetch this reducer's partition from every map node, in
		// deterministic node order.
		mapNodes := make([]topology.NodeID, 0, len(j.mapNodes))
		for node := range j.mapNodes {
			mapNodes = append(mapNodes, node)
		}
		sort.Slice(mapNodes, func(a, b int) bool { return mapNodes[a] < mapNodes[b] })
		var fetches int
		var fetched float64
		reducerDone := func() {
			compute := time.Duration(float64(j.ReducePerMB) * fetched / topology.MB)
			c.hdfs.Clock().Schedule(compute, func() {
				j.reducing--
				if j.reducing == 0 {
					c.completeJob(j)
				}
			})
		}
		for _, node := range mapNodes {
			part := j.mapNodes[node] / float64(j.Reducers)
			if part <= 0 {
				continue
			}
			fetched += part
			if node == reducer {
				continue // local partition needs no network fetch
			}
			fetches++
			j.ShuffledBytes += part
			h.Transfer(node, reducer, part, func() {
				fetches--
				if fetches == 0 {
					reducerDone()
				}
			})
		}
		if fetches == 0 {
			reducerDone()
		}
	}
}
