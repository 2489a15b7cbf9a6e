package hdfs

import (
	"fmt"
	"math"
	"time"

	"erms/internal/auditlog"
	"erms/internal/netsim"
	"erms/internal/topology"
	"erms/internal/trace"
)

// ExternalClient denotes a reader outside the cluster (an application
// server). External reads have no locality preference: the replica is
// chosen purely by load, and the flow exits through the source's rack
// uplink.
const ExternalClient topology.NodeID = -1

// Locality classifies where a block read was served from.
type Locality int

// Locality levels.
const (
	NodeLocal Locality = iota
	RackLocal
	Remote
)

// String returns the locality's short name: node-local, rack-local or remote.
func (l Locality) String() string {
	switch l {
	case NodeLocal:
		return "node-local"
	case RackLocal:
		return "rack-local"
	}
	return "remote"
}

// ReadResult summarizes a completed file read.
type ReadResult struct {
	Path      string
	Client    topology.NodeID
	Bytes     float64
	Start     time.Duration
	End       time.Duration
	Err       error
	NodeLocal int // block reads served node-locally
	RackLocal int
	Remote    int
	// Offset/Length describe the requested byte range for ReadRange
	// results (Length 0 means a whole-file read).
	Offset float64
	Length float64
}

// Duration returns the wall (virtual) time the read took.
func (r *ReadResult) Duration() time.Duration { return r.End - r.Start }

// ThroughputMBps returns achieved read throughput in MB/s.
func (r *ReadResult) ThroughputMBps() float64 {
	d := r.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return r.Bytes / topology.MB / d
}

// ReadFile streams the whole file to the client node, reading blocks
// sequentially as HDFS clients do: for each block the namenode's replica
// list is consulted, the closest available replica is chosen (node-local,
// then rack-local, then least-loaded remote), the datanode admits the
// session (queuing when at its session limit), and the transfer runs on
// the fabric. done receives the result when the last block lands (or on
// unrecoverable failure). An audit open record is emitted at the start.
func (c *Cluster) ReadFile(client topology.NodeID, path string, done func(*ReadResult)) {
	c.read(client, path, false, 0, 0, 0, done)
}

// ReadFileAt is ReadFile starting from block index `start` and wrapping
// around (all blocks are still read exactly once). Concurrent benchmark
// readers use distinct starting offsets so they do not march through the
// file in lockstep — mirroring steady-state production readers that are
// naturally desynchronized.
func (c *Cluster) ReadFileAt(client topology.NodeID, path string, start int, done func(*ReadResult)) {
	c.read(client, path, false, max(start, 0), 0, 0, done)
}

// ReadRange streams the byte range [offset, offset+length) of path to the
// client — the positioned-read (pread) path real HDFS clients use for index
// lookups and columnar scans. Only the blocks covering the range are read,
// and each covered block streams only the overlapping bytes, so a ranged
// read of a block's head costs a fraction of a whole-block transfer. The
// audit log records cmd=pread, not open: the Data Judge's file-level count
// (formula 1) sees nothing, while the per-block read stream still feeds the
// block-level axes (formulas 2–3). length <= 0 means "to end of file";
// the range is clamped to the file size.
func (c *Cluster) ReadRange(client topology.NodeID, path string, offset, length float64, done func(*ReadResult)) {
	c.read(client, path, true, 0, offset, length, done)
}

// fileRead is one ReadFile, ReadFileAt or ReadRange in flight. It owns the
// result handed to done, and holds the one blockRead its walk reuses for
// every block and every retry: a block starts only after the previous one
// has settled, so the record is never in two places at once. The record
// comes from the cluster's free list and goes back there when the read
// ends; the fileRead itself is not reused, since done keeps its result.
type fileRead struct {
	res    ReadResult
	blocks []BlockID
	start  int     // block index the walk begins at (wrapping)
	offset float64 // the range [offset, end) the walk streams
	end    float64
	n      int     // next block of the walk
	pos    float64 // walk byte position of block n's first byte
	span   trace.SpanID
	ranged bool
	done   func(*ReadResult)
	blk    *blockRead
}

// read is the one block walk under ReadFile, ReadFileAt and ReadRange: it
// visits the file's blocks once each from index start (wrapping), streams
// from every block the bytes that overlap [offset, end) through the walk's
// blockRead — a block the range covers entirely is read whole — and
// settles the result in finish. ranged selects the pread audit command,
// span name, counters and range checks. A whole-file read is the range
// [0, +Inf): every block lies inside it wherever the walk starts, so no
// block size arithmetic can turn a whole block into a slice.
func (c *Cluster) read(client topology.NodeID, path string, ranged bool, start int, offset, length float64, done func(*ReadResult)) {
	cmd, name := auditlog.CmdOpen, "hdfs.read"
	if ranged {
		cmd, name = auditlog.CmdPread, "hdfs.pread"
	}
	f := c.files[path]
	r := &fileRead{
		res:    ReadResult{Path: path, Client: client, Start: c.clock.Now(), Offset: offset, Length: length},
		start:  start,
		offset: offset,
		end:    math.Inf(1),
		ranged: ranged,
		done:   done,
	}
	var refused error
	switch {
	case f == nil:
		refused = fmt.Errorf("hdfs: no such file %q", path)
	case ranged && (offset < 0 || offset >= f.Size):
		refused = fmt.Errorf("hdfs: pread offset %.0f out of range for %q (size %.0f)", offset, path, f.Size)
	}
	rec := auditlog.Record{
		Time: c.clock.Now(), Allowed: refused == nil, UGI: "hadoop",
		IP: c.clientIP(client), Cmd: cmd, Src: path,
	}
	if refused != nil {
		c.audit.Append(rec)
		r.res.Err = refused
		r.res.End = c.clock.Now()
		if done != nil {
			done(&r.res)
		}
		return
	}
	r.span = c.tracer.Begin(name, c.tracer.Current())
	c.tracer.SetAttr(r.span, "path", path)
	if ranged {
		r.end = f.Size
		if length > 0 && offset+length < r.end {
			r.end = offset + length
		}
		r.res.Length = r.end - offset
		c.tracer.SetAttrInt(r.span, "offset", int64(offset))
		c.tracer.SetAttrInt(r.span, "length", int64(r.res.Length))
		c.metrics.RangedReads++
	}
	c.audit.Append(rec)
	c.metrics.ReadsStarted++
	c.activeReads++
	r.blocks = f.Blocks
	r.blk = c.takeBlockRead(client)
	r.blk.file = r
	r.next()
}

// next issues the read of the walk's next block that overlaps the range,
// skipping blocks that end before it, or settles the read when none is left.
func (r *fileRead) next() {
	c := r.blk.c
	for ; r.n < len(r.blocks); r.n++ {
		id := r.blocks[(r.start+r.n)%len(r.blocks)]
		amount := 0.0 // the whole block; the block read reports a missing one
		if c.live(id) {
			lo, hi := r.pos, r.pos+c.size(id)
			r.pos = hi
			if hi <= r.offset {
				continue
			}
			if lo >= r.end {
				break
			}
			if lo < r.offset || hi > r.end {
				amount = math.Min(hi, r.end) - math.Max(lo, r.offset)
			}
		}
		r.n++
		prev := c.tracer.Push(r.span)
		r.blk.issue(id, amount)
		c.tracer.Pop(prev)
		return
	}
	r.finish(nil)
}

// blockDone takes the outcome of the walk's current block read: a failure
// ends the read, a success is counted and the walk moves on.
func (r *fileRead) blockDone(bytes float64, loc Locality, err error) {
	if err != nil {
		r.finish(err)
		return
	}
	r.res.Bytes += bytes
	switch loc {
	case NodeLocal:
		r.res.NodeLocal++
	case RackLocal:
		r.res.RackLocal++
	default:
		r.res.Remote++
	}
	r.next()
}

// finish is the one place a started read ends, completed (err nil) or
// failed: result, active-read count, counters, span, the block-read
// record's return, callback.
func (r *fileRead) finish(err error) {
	c, res := r.blk.c, &r.res
	c.returnBlockRead(r.blk)
	r.blk = nil
	res.Err = err
	res.End = c.clock.Now()
	c.activeReads--
	if err != nil {
		c.metrics.ReadsFailed++
		msg := "read failed"
		if r.ranged {
			msg = "pread failed"
		}
		c.tracer.SetAttr(r.span, "error", msg)
	} else {
		c.metrics.ReadsCompleted++
		c.metrics.BytesRead += res.Bytes
		if r.ranged {
			c.metrics.RangedBytesRead += res.Bytes
		}
	}
	c.tracer.End(r.span)
	if r.done != nil {
		r.done(res)
	}
}

// ReadBlock reads a single block to the client node (used by MapReduce map
// tasks, which read exactly one block).
func (c *Cluster) ReadBlock(client topology.NodeID, id BlockID, done func(bytes float64, loc Locality, err error)) {
	r := c.takeBlockRead(client)
	r.done = done
	r.issue(id, 0)
}

// Transfer streams raw bytes from src to dst over the fabric — shuffle
// traffic, log shipping, anything that moves data between cluster nodes
// without touching the block map. A same-node transfer costs one disk
// pass. done may be nil.
func (c *Cluster) Transfer(src, dst topology.NodeID, bytes float64, done func()) {
	if bytes <= 0 {
		if done != nil {
			c.clock.Schedule(0, func() { done() })
		}
		return
	}
	c.fabric.StartFlow(c.topo.ReadPath(src, dst), bytes, 0, func(*netsim.Flow) {
		if done != nil {
			done()
		}
	})
}

const maxReadRetries = 3

// selectReplica picks the serving datanode for a block read: node-local
// first, then rack-local, then remote; within a tier the node with the
// fewest active sessions (then total queue, then smallest ID) wins. Only
// nodes whose process is up and reachable from the client serve; stale
// nodes (missed heartbeats) are avoided — chosen only when no fresh
// replica exists, mirroring HDFS's avoid-stale-datanode read path.
func (c *Cluster) selectReplica(client topology.NodeID, id BlockID, exclude map[DatanodeID]bool) (DatanodeID, Locality, bool) {
	var best DatanodeID = -1
	bestTier := 99 // locality tier + staleness penalty, for ordering
	bestBase := 2  // locality tier alone, for reporting
	bestLoad := 0
	for _, r := range c.replicas[id] {
		d := c.datanodes[r]
		if !d.canServe() || exclude[r] || !c.reachable(topology.NodeID(r), client) {
			continue
		}
		base := 2
		if client >= 0 {
			if topology.NodeID(r) == client {
				base = 0
			} else if c.topo.SameRack(topology.NodeID(r), client) {
				base = 1
			}
		}
		tier := base
		if d.Stale {
			tier += 10
		}
		load := d.sessions + len(d.waiting)
		if best < 0 || tier < bestTier || (tier == bestTier && load < bestLoad) ||
			(tier == bestTier && load == bestLoad && r < best) {
			best, bestTier, bestBase, bestLoad = r, tier, base, load
		}
	}
	if best < 0 {
		return 0, Remote, false
	}
	loc := Remote
	switch bestBase {
	case 0:
		loc = NodeLocal
	case 1:
		loc = RackLocal
	}
	return best, loc, true
}

// blockRead streams a block (or, when 0 < amount < block size, just a slice
// of it) from the best replica to the client. amount <= 0 means the whole
// block. Every attempt — partial or not — counts one block read: session
// admission, locality accounting, and the BlockReadEvent fan-out are
// per-read, matching how a datanode serves a pread.
//
// The record is in one place at a time: a datanode's waiting queue (left
// through drainWaiting or abortServing), then a session whose flow — the
// record's own — is in the fabric and whose embedded flowHandle is in
// activeFlows (left through landed or aborted), then the next attempt or
// its owner, and between reads the cluster's free list. Every exit removes
// the flow and the handle before the callback runs, so a retry, the
// owner's next block or the next read may reuse the record at once.
type blockRead struct {
	flowHandle // peer is the client; abort is the cached aborted
	flow       netsim.Flow
	c          *Cluster
	client     topology.NodeID
	id         BlockID
	amount     float64
	attempt    int
	// Set per attempt: the block's file — its path is read when the session
	// is granted, so a rename while the read queues is reported — and size,
	// the chosen source and its locality, the bytes streamed, the attempt's
	// span and the path its flow crosses.
	f        *INode
	size     float64
	src      DatanodeID
	d        *Datanode
	loc      Locality
	stream   float64
	sp       trace.SpanID
	path     [topology.MaxReadPath]topology.LinkID
	landedFn func(*netsim.Flow) // the cached landed, the flow's onDone
	// The outcome goes to file's walk, or to done for a ReadBlock.
	file   *fileRead
	done   func(float64, Locality, error)
	pooled bool // on the cluster's free list
}

// takeBlockRead hands out a record for client's read: one from the free
// list, or a new one whose callbacks it caches once for the record's life.
func (c *Cluster) takeBlockRead(client topology.NodeID) *blockRead {
	var r *blockRead
	if n := len(c.freeReads); n > 0 {
		r = c.freeReads[n-1]
		c.freeReads[n-1] = nil
		c.freeReads = c.freeReads[:n-1]
		r.pooled = false
	} else {
		r = &blockRead{c: c}
		r.abort, r.landedFn = r.aborted, r.landed
	}
	r.client, r.peer = client, client
	return r
}

// returnBlockRead puts the record of a read that has ended on the free
// list, dropping what would pin its owner. A second return is a bug that
// would hand one record to two reads, so it panics.
func (c *Cluster) returnBlockRead(r *blockRead) {
	if r.pooled {
		panic(fmt.Sprintf("hdfs: block-read record for block %d returned twice", r.id))
	}
	r.pooled = true
	r.file, r.done, r.f, r.d = nil, nil, nil, nil
	c.freeReads = append(c.freeReads, r)
}

// issue starts the first attempt at reading amount bytes of block id.
func (r *blockRead) issue(id BlockID, amount float64) {
	r.id, r.amount, r.attempt = id, amount, 0
	r.begin()
}

// begin runs attempt r.attempt: pick a replica and ask its datanode for a
// session.
func (r *blockRead) begin() {
	c := r.c
	r.sp = c.tracer.Begin("hdfs.block_read", c.tracer.Current())
	c.tracer.SetAttrInt(r.sp, "block", int64(r.id))
	if r.attempt > 0 {
		c.tracer.SetAttrInt(r.sp, "attempt", int64(r.attempt))
	}
	if !c.live(r.id) {
		c.tracer.SetAttr(r.sp, "error", "no such block")
		c.tracer.End(r.sp)
		r.finish(0, Remote, fmt.Errorf("hdfs: no such block %d", r.id))
		return
	}
	src, loc, ok := c.selectReplica(r.client, r.id, nil)
	if !ok {
		c.tracer.SetAttr(r.sp, "error", "no live replica")
		c.tracer.End(r.sp)
		r.finish(0, Remote, fmt.Errorf("hdfs: block %d of %q has no live replica", r.id, c.owner(r.id).Path))
		return
	}
	c.tracer.SetAttrInt(r.sp, "datanode", int64(src))
	r.f, r.size, r.src, r.d, r.loc = c.owner(r.id), c.size(r.id), src, c.datanodes[src], loc
	r.stream = r.size
	if r.amount > 0 && r.amount < r.size {
		r.stream = r.amount
	}
	c.admit(r.d, r)
}

// admitted streams the block (or the requested slice of it) once the
// session is granted, registering the flow so the serving node's death or
// a partition aborts it.
func (r *blockRead) admitted() {
	c := r.c
	c.metrics.BlockReads++
	if r.stream < r.size {
		c.metrics.PartialBlockReads++
	}
	if int(r.id) < len(c.readCounts) {
		c.readCounts[r.id]++
	}
	switch r.loc {
	case NodeLocal:
		c.metrics.NodeLocalReads++
	case RackLocal:
		c.metrics.RackLocalReads++
	default:
		c.metrics.RemoteReads++
	}
	ev := BlockReadEvent{
		Time: c.clock.Now(), Path: r.f.Path, Block: r.id, Datanode: r.src, Client: r.client,
		Bytes: r.stream,
	}
	for _, fn := range c.onBlockRead {
		fn(ev)
	}
	var path []topology.LinkID
	if r.client < 0 {
		path = c.topo.AppendExternalPath(r.path[:0], topology.NodeID(r.src))
	} else {
		path = c.topo.AppendReadPath(r.path[:0], topology.NodeID(r.src), r.client)
	}
	prev := c.tracer.Push(r.sp)
	c.fabric.Start(&r.flow, path, r.stream, 0, r.landedFn)
	c.tracer.Pop(prev)
	r.d.activeFlows[&r.flow] = &r.flowHandle
}

// landed completes the attempt when its flow's last byte arrives.
// Client-side checksum: a corrupt replica streams fine but fails
// verification on arrival; the read reports it (the namenode quarantines
// the copy) and retries elsewhere.
func (r *blockRead) landed(f *netsim.Flow) {
	c := r.c
	delete(r.d.activeFlows, f)
	c.release(r.d)
	if r.d.corrupt[r.id] {
		c.metrics.ChecksumFailures++
		c.reportCorrupt(r.id, r.src)
		r.retryAfter("checksum")
		return
	}
	c.tracer.End(r.sp)
	r.finish(r.stream, r.loc, nil)
}

// aborted retries on another replica after the serving node died or a
// partition cut the flow (the killer has already canceled the flow and
// dropped the handle).
func (r *blockRead) aborted() {
	r.c.release(r.d)
	r.retryAfter("aborted")
}

// retryAfter closes the attempt's span with reason and starts the next
// attempt, or fails the read after maxReadRetries.
func (r *blockRead) retryAfter(reason string) {
	r.c.tracer.SetAttr(r.sp, "error", reason)
	r.c.tracer.End(r.sp)
	if r.attempt+1 >= maxReadRetries {
		r.finish(0, r.loc, fmt.Errorf("hdfs: read of block %d failed after %d attempts", r.id, r.attempt+1))
		return
	}
	r.attempt++
	r.begin()
}

// finish hands the outcome to the record's owner; a ReadBlock's record goes
// back to the free list first. The record may be reused from inside the
// call, so nothing touches it afterwards.
func (r *blockRead) finish(bytes float64, loc Locality, err error) {
	if r.file != nil {
		r.file.blockDone(bytes, loc, err)
		return
	}
	done := r.done
	r.c.returnBlockRead(r)
	done(bytes, loc, err)
}
