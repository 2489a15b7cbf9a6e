package hdfs

import (
	"fmt"
	"sort"
	"time"

	"erms/internal/auditlog"
	"erms/internal/sim"
)

// CorruptReplica flips the stored copy of block id on dn to a corrupt
// state — silent bit rot. Nothing happens until the corruption is
// *detected*: a client read's checksum fails, the background scrubber
// verifies the block, or the node rejoins from a partition and its block
// report is reconciled.
func (c *Cluster) CorruptReplica(id BlockID, dn DatanodeID) error {
	if !c.live(id) {
		return fmt.Errorf("hdfs: no such block %d", id)
	}
	d := c.datanodes[dn]
	if !d.blocks.Has(id) {
		return fmt.Errorf("hdfs: %s holds no replica of block %d", d.Name, id)
	}
	d.corrupt[id] = true
	return nil
}

// reportCorrupt is the namenode's corrupt-replica handler. If the block
// has another clean copy — or is erasure-protected — the bad replica is
// quarantined (dropped from the block map, so re-replication or stripe
// reconstruction restores redundancy) and OnCorruptReplica fires. The
// last copy of an unprotected block is kept (its undamaged bytes may be
// partially salvageable, as the real namenode does) and reported exactly
// once.
func (c *Cluster) reportCorrupt(id BlockID, dn DatanodeID) {
	d := c.datanodes[dn]
	if !d.corrupt[id] || !d.blocks.Has(id) {
		return
	}
	clean := 0
	for _, r := range c.replicas[id] {
		if r != dn && !c.datanodes[r].corrupt[id] {
			clean++
		}
	}
	f := c.owner(id)
	size := c.size(id)
	if clean > 0 || f.Encoded || len(c.replicas[id]) > 1 {
		c.metrics.CorruptDetected++
		c.metrics.CorruptBytes += size
		c.detachReplica(id, dn) // clears the corrupt flag with the replica
		for _, fn := range c.onCorrupt {
			fn(id, dn)
		}
		return
	}
	if !d.reported[id] {
		c.markReported(d, id)
		c.metrics.CorruptDetected++
		c.metrics.CorruptBytes += size
		for _, fn := range c.onCorrupt {
			fn(id, dn)
		}
	}
}

// markReported records that d's corrupt replica of bid, the block's last
// copy, has been reported, so it is reported once.
func (c *Cluster) markReported(d *Datanode, bid BlockID) {
	d.reported[bid] = true
	c.jlog(auditlog.Entry{Op: auditlog.OpReported, Block: int64(bid), Node: int(d.ID)})
}

// ScrubConfig tunes the background block scrubber (HDFS's
// DataBlockScanner: every datanode re-verifies its replicas on a rolling
// schedule; we model one cluster-wide scanner for determinism).
type ScrubConfig struct {
	// Period between scrub passes; default 30s.
	Period time.Duration
	// BlocksPerScan bounds how many blocks one pass verifies; the cursor
	// carries over so the whole block space is covered every
	// ceil(blocks/BlocksPerScan) passes. Default 50.
	BlocksPerScan int
}

// ScanRate returns blocks verified per second of virtual time.
func (s ScrubConfig) ScanRate() float64 {
	p := s.Period
	if p <= 0 {
		p = 30 * time.Second
	}
	n := s.BlocksPerScan
	if n <= 0 {
		n = 50
	}
	return float64(n) / p.Seconds()
}

// StartScrubber runs the verification scanner until the returned stop
// function is called. Each pass walks BlocksPerScan blocks in sorted-ID
// order from a persistent cursor: plain blocks have each replica's
// checksum re-read; an encoded block has its whole stripe's flagged
// members reported at once. Detected corruption routes through
// reportCorrupt, so quarantine and OnCorruptReplica behave exactly as for
// read-detected corruption.
func (c *Cluster) StartScrubber(cfg ScrubConfig) func() {
	if cfg.Period <= 0 {
		cfg.Period = 30 * time.Second
	}
	if cfg.BlocksPerScan <= 0 {
		cfg.BlocksPerScan = 50
	}
	t := sim.NewTicker(c.clock, cfg.Period, func(time.Duration) {
		c.scrubPass(cfg.BlocksPerScan)
	})
	return t.Stop
}

// scrubPass verifies the next n live blocks in ID order, wrapping around.
// The cursor walks the dense block slice (skipping deleted entries) so a
// pass costs the blocks visited, not a rebuild and sort of the whole ID
// space.
func (c *Cluster) scrubPass(n int) {
	if c.liveBlocks == 0 {
		return
	}
	if n > c.liveBlocks {
		n = c.liveBlocks
	}
	pos := c.scrubCursor
	if pos >= len(c.blocks) {
		pos = 0
	}
	for visited := 0; visited < n; {
		if pos >= len(c.blocks) {
			pos = 0
		}
		if c.blocks[pos].file >= 0 {
			c.scrubBlock(BlockID(pos))
			visited++
		}
		pos++
	}
	c.scrubCursor = pos % len(c.blocks)
}

// scrubBlock verifies one block's replicas.
func (c *Cluster) scrubBlock(bid BlockID) {
	f := c.owner(bid)
	if f == nil {
		return
	}
	reps := c.replicas[bid]
	if len(reps) == 0 {
		return
	}
	c.metrics.ReplicasScrubbed += len(reps)
	if f.Encoded {
		c.scrubStripe(f, bid)
		return
	}
	for _, dn := range append([]DatanodeID(nil), reps...) {
		if c.datanodes[dn].corrupt[bid] {
			c.reportCorrupt(bid, dn)
		}
	}
}

// scrubStripe checks the erasure stripe containing block bid as one unit:
// every member replica flagged corrupt is reported, data and parity alike,
// in flaggedMembers' order. A block scanner checks each replica against
// its own checksum, so a stripe whose members all rotted is caught like
// one with a single bad member.
func (c *Cluster) scrubStripe(f *INode, bid BlockID) {
	data, parity, ok := c.stripeOf(f, bid)
	if !ok {
		return
	}
	for _, fl := range c.flaggedMembers(append(append([]BlockID{}, data...), parity...)) {
		c.reportCorrupt(fl.bid, fl.dn)
	}
}

type flaggedReplica struct {
	bid BlockID
	dn  DatanodeID
}

// flaggedMembers lists (block, node) pairs in the member set whose stored
// copy is flagged corrupt, in deterministic order.
func (c *Cluster) flaggedMembers(members []BlockID) []flaggedReplica {
	var out []flaggedReplica
	for _, bid := range members {
		for _, dn := range c.replicas[bid] {
			if c.datanodes[dn].corrupt[bid] {
				out = append(out, flaggedReplica{bid, dn})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].bid != out[j].bid {
			return out[i].bid < out[j].bid
		}
		return out[i].dn < out[j].dn
	})
	return out
}
