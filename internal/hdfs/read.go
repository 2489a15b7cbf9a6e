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

// read is the one block walk under ReadFile, ReadFileAt and ReadRange: it
// visits the file's blocks once each from index start (wrapping), streams
// from every block the bytes that overlap [offset, end) through readBlock
// — a block the range covers entirely is read whole — and settles the
// result in finishRead. ranged selects the pread audit command, span name,
// counters and range checks. A whole-file read is the range [0, +Inf):
// every block lies inside it wherever the walk starts, so no block size
// arithmetic can turn a whole block into a slice.
func (c *Cluster) read(client topology.NodeID, path string, ranged bool, start int, offset, length float64, done func(*ReadResult)) {
	cmd, name := auditlog.CmdOpen, "hdfs.read"
	if ranged {
		cmd, name = auditlog.CmdPread, "hdfs.pread"
	}
	f := c.files[path]
	res := &ReadResult{Path: path, Client: client, Start: c.clock.Now(), Offset: offset, Length: length}
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
		res.Err = refused
		res.End = c.clock.Now()
		if done != nil {
			done(res)
		}
		return
	}
	span := c.tracer.Begin(name, c.tracer.Current())
	c.tracer.SetAttr(span, "path", path)
	end := math.Inf(1)
	if ranged {
		end = f.Size
		if length > 0 && offset+length < end {
			end = offset + length
		}
		res.Length = end - offset
		c.tracer.SetAttrInt(span, "offset", int64(offset))
		c.tracer.SetAttrInt(span, "length", int64(res.Length))
		c.metrics.RangedReads++
	}
	c.audit.Append(rec)
	c.metrics.ReadsStarted++
	c.activeReads++
	blocks := f.Blocks
	// step issues the read of the n-th block of the walk, whose first byte
	// is byte pos of the walk, skipping blocks that end before the range.
	var step func(n int, pos float64)
	step = func(n int, pos float64) {
		for ; n < len(blocks); n++ {
			id := blocks[(start+n)%len(blocks)]
			amount := 0.0 // the whole block; readBlock reports a missing one
			if b := c.Block(id); b != nil {
				lo, hi := pos, pos+b.Size
				pos = hi
				if hi <= offset {
					continue
				}
				if lo >= end {
					break
				}
				if lo < offset || hi > end {
					amount = math.Min(hi, end) - math.Max(lo, offset)
				}
			}
			next, nextPos := n+1, pos
			prev := c.tracer.Push(span)
			c.readBlock(client, id, amount, 0, func(bytes float64, loc Locality, err error) {
				if err != nil {
					c.finishRead(res, span, ranged, err, done)
					return
				}
				res.Bytes += bytes
				switch loc {
				case NodeLocal:
					res.NodeLocal++
				case RackLocal:
					res.RackLocal++
				default:
					res.Remote++
				}
				step(next, nextPos)
			})
			c.tracer.Pop(prev)
			return
		}
		c.finishRead(res, span, ranged, nil, done)
	}
	step(0, 0)
}

// finishRead is the one place a started read ends, completed (err nil) or
// failed: result, active-read count, counters, span, callback.
func (c *Cluster) finishRead(res *ReadResult, span trace.SpanID, ranged bool, err error, done func(*ReadResult)) {
	res.Err = err
	res.End = c.clock.Now()
	c.activeReads--
	if err != nil {
		c.metrics.ReadsFailed++
		msg := "read failed"
		if ranged {
			msg = "pread failed"
		}
		c.tracer.SetAttr(span, "error", msg)
	} else {
		c.metrics.ReadsCompleted++
		c.metrics.BytesRead += res.Bytes
		if ranged {
			c.metrics.RangedBytesRead += res.Bytes
		}
	}
	c.tracer.End(span)
	if done != nil {
		done(res)
	}
}

// ReadBlock reads a single block to the client node (used by MapReduce map
// tasks, which read exactly one block).
func (c *Cluster) ReadBlock(client topology.NodeID, id BlockID, done func(bytes float64, loc Locality, err error)) {
	c.readBlock(client, id, 0, 0, done)
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

// readBlock streams a block (or, when 0 < amount < block size, just a slice
// of it) from the best replica to the client. amount <= 0 means the whole
// block. Every call — partial or not — counts one block read: session
// admission, locality accounting, and the BlockReadEvent fan-out are
// per-read, matching how a datanode serves a pread.
func (c *Cluster) readBlock(client topology.NodeID, id BlockID, amount float64, attempt int, done func(float64, Locality, error)) {
	sp := c.tracer.Begin("hdfs.block_read", c.tracer.Current())
	c.tracer.SetAttrInt(sp, "block", int64(id))
	if attempt > 0 {
		c.tracer.SetAttrInt(sp, "attempt", int64(attempt))
	}
	b := c.Block(id)
	if b == nil {
		c.tracer.SetAttr(sp, "error", "no such block")
		c.tracer.End(sp)
		done(0, Remote, fmt.Errorf("hdfs: no such block %d", id))
		return
	}
	src, loc, ok := c.selectReplica(client, id, nil)
	if !ok {
		c.tracer.SetAttr(sp, "error", "no live replica")
		c.tracer.End(sp)
		done(0, Remote, fmt.Errorf("hdfs: block %d of %q has no live replica", id, b.File))
		return
	}
	c.tracer.SetAttrInt(sp, "datanode", int64(src))
	d := c.datanodes[src]
	retry := func() {
		if attempt+1 >= maxReadRetries {
			done(0, loc, fmt.Errorf("hdfs: read of block %d failed after %d attempts", id, attempt+1))
			return
		}
		c.readBlock(client, id, amount, attempt+1, done)
	}
	stream := b.Size
	if amount > 0 && amount < b.Size {
		stream = amount
	}
	c.admit(d, func() {
		// Session granted; stream the block (or the requested slice of it).
		c.metrics.BlockReads++
		if stream < b.Size {
			c.metrics.PartialBlockReads++
		}
		if int(id) < len(c.readCounts) {
			c.readCounts[id]++
		}
		switch loc {
		case NodeLocal:
			c.metrics.NodeLocalReads++
		case RackLocal:
			c.metrics.RackLocalReads++
		default:
			c.metrics.RemoteReads++
		}
		ev := BlockReadEvent{
			Time: c.clock.Now(), Path: b.File, Block: id, Datanode: src, Client: client,
			Bytes: stream,
		}
		for _, fn := range c.onBlockRead {
			fn(ev)
		}
		var path []topology.LinkID
		if client < 0 {
			path = c.topo.ExternalPath(topology.NodeID(src))
		} else {
			path = c.topo.ReadPath(topology.NodeID(src), client)
		}
		prev := c.tracer.Push(sp)
		flow := c.fabric.StartFlow(path, stream, 0, func(f *netsim.Flow) {
			delete(d.activeFlows, f)
			c.release(d)
			// Client-side checksum: a corrupt replica streams fine but
			// fails verification on arrival; the read reports it (namenode
			// quarantines the copy) and retries elsewhere.
			if d.corrupt[id] {
				c.metrics.ChecksumFailures++
				c.reportCorrupt(b, src)
				c.tracer.SetAttr(sp, "error", "checksum")
				c.tracer.End(sp)
				retry()
				return
			}
			c.tracer.End(sp)
			done(stream, loc, nil)
		})
		c.tracer.Pop(prev)
		// Register an abort handler so that if the serving node dies the
		// read retries on another replica (the killer cancels the flow and
		// invokes this).
		d.activeFlows[flow] = &flowHandle{peer: client, abort: func() {
			c.release(d)
			c.tracer.SetAttr(sp, "error", "aborted")
			c.tracer.End(sp)
			retry()
		}}
	}, func() {
		c.tracer.SetAttr(sp, "error", "admission aborted")
		c.tracer.End(sp)
		retry()
	})
}
