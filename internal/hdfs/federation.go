package hdfs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"erms/internal/auditlog"
)

// Federation support: the namenode side of cross-shard moves. A move's
// protocol markers (intent, commit, tombstone) are journaled in the
// source shard's journal through AppendMarker; both the live path and
// journal replay maintain the pending-move table, so a standby promoted
// from checkpoint+tail knows which moves were in flight and whether each
// must roll back (intent only) or roll forward (committed). The markers
// mutate no namespace state — the move's visible effects are ordinary
// journaled operations (create at the destination's staging path, rename
// to publish, delete at the source).

// MoveRecord is one open cross-shard move, keyed by (Src, Dst).
type MoveRecord struct {
	Src  string // path in this (source) shard
	Dst  string // final path in the destination shard
	Peer int    // destination shard index
	// Committed marks the move past its commit point: the copy exists at
	// the destination staging path and recovery must roll forward.
	Committed bool
}

// moveKey keys the pending-move table by the move's two paths, so a
// marker finds its record without building a key string.
type moveKey struct{ src, dst string }

// AppendMarker journals a federation protocol marker and updates the
// pending-move table. Markers flow through the same fencing/safe-mode
// gate as namespace mutations — a fenced ex-primary must not advance a
// cross-shard protocol — and require an attached journal, since a marker
// that cannot be made durable protects nothing.
func (c *Cluster) AppendMarker(e auditlog.Entry) error {
	switch e.Op {
	case auditlog.OpFedMoveIntent, auditlog.OpFedMoveCommit, auditlog.OpFedMoveTombstone:
	default:
		return fmt.Errorf("hdfs: %s is not a protocol marker", e.Op)
	}
	if e.Path == "" || e.Dst == "" {
		return fmt.Errorf("hdfs: marker %s needs both src and dst paths", e.Op)
	}
	if err := c.writable(); err != nil {
		return err
	}
	if c.journal == nil {
		return fmt.Errorf("hdfs: marker %s needs a journal (EnableJournal)", e.Op)
	}
	c.jlog(e)
	c.applyMoveMarker(e)
	return nil
}

// applyMoveMarker folds one marker into the pending-move table. Shared by
// the live path (AppendMarker) and journal replay; replay may see a
// commit whose intent predates the checkpoint — the commit alone carries
// enough to roll forward, so it opens the record as already committed.
func (c *Cluster) applyMoveMarker(e auditlog.Entry) {
	key := moveKey{e.Path, e.Dst}
	if e.Op == auditlog.OpFedMoveTombstone {
		delete(c.fedMoves, key)
		return
	}
	commit := e.Op == auditlog.OpFedMoveCommit
	if rec, ok := c.fedMoves[key]; ok && commit {
		rec.Committed = true
		return
	}
	if c.fedMoves == nil {
		c.fedMoves = make(map[moveKey]*MoveRecord)
	}
	c.fedMoves[key] = &MoveRecord{Src: e.Path, Dst: e.Dst, Peer: e.Node, Committed: commit}
}

// PendingMoves returns the open cross-shard moves in deterministic
// (Src, Dst) order. Empty between protocol runs; non-empty only when a
// move is mid-flight or a crash left one unresolved.
func (c *Cluster) PendingMoves() []MoveRecord {
	if len(c.fedMoves) == 0 {
		return nil
	}
	out := make([]MoveRecord, 0, len(c.fedMoves))
	for _, rec := range c.fedMoves {
		out = append(out, *rec)
	}
	slices.SortFunc(out, func(a, b MoveRecord) int {
		return cmp.Or(strings.Compare(a.Src, b.Src), strings.Compare(a.Dst, b.Dst))
	})
	return out
}

// Add returns the field-wise sum of two metrics snapshots — the federated
// facade's cluster-wide view across per-shard block pools.
func (m Metrics) Add(o Metrics) Metrics {
	for _, f := range metricFields {
		switch p := f.field(&m).(type) {
		case *int:
			*p += *f.field(&o).(*int)
		case *float64:
			*p += *f.field(&o).(*float64)
		}
	}
	return m
}
