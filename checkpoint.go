package erms

import (
	"fmt"
	"io"

	"erms/internal/auditlog"
	"erms/internal/federation"
	"erms/internal/hdfs"
	"erms/internal/wire"
)

// Journal and JournalEntry surface the write-ahead journal types (see
// Options.EnableJournal).
type (
	// Journal is the namenode's write-ahead journal of durable mutations.
	Journal = auditlog.Journal
	// JournalEntry is one typed journal record.
	JournalEntry = auditlog.Entry
)

// Checkpoint serializes the namenode's durable state — namespace, block
// map, replica lists, datanode lifecycle state, metrics — to w in the
// versioned, deterministic checkpoint format. Derived indexes are not
// serialized; Restore rebuilds them. The system keeps running; the
// checkpoint captures the state as of Now().
//
// The shard count picks the on-disk format, here and in Restore and
// StateDigest, because checkpoints outlive the code that wrote them: one
// shard writes the classic single-namenode stream (ERMSCKP1), byte for
// byte what every release has written. Two or more write the federated
// envelope: magic, envelope version, the router (version + shard count),
// each shard's classic checkpoint blob length-prefixed in shard order,
// and an FNV-1a trailer over everything before it.
func (s *System) Checkpoint(w io.Writer) error {
	if len(s.shards) == 1 {
		return s.shards[0].cluster.WriteCheckpoint(w)
	}
	if _, err := w.Write(s.federatedCheckpoint()); err != nil {
		return fmt.Errorf("erms: federated checkpoint: %w", err)
	}
	return nil
}

// The federated checkpoint envelope. EnvelopeVersion changes whenever the
// envelope's own layout does; each shard blob inside carries the classic
// checkpoint format's separate version.
const (
	fedCkptMagic       = "ERMSFEDC"
	FedEnvelopeVersion = 1
)

// federatedCheckpoint encodes the envelope into one slice, sized from the
// shards' last failover snapshots when there are any. A blob's length
// prefix precedes it, so each shard encodes into one reused scratch first.
func (s *System) federatedCheckpoint() []byte {
	hint := 64
	for _, snap := range s.snaps {
		hint += len(snap.ckpt) + len(snap.ckpt)/8
	}
	w := wire.Begin(make([]byte, 0, hint), fedCkptMagic, FedEnvelopeVersion)
	w = append(w, s.router.Encode()...)
	var blob []byte
	for _, sh := range s.shards {
		blob = sh.cluster.AppendCheckpoint(blob[:0])
		w.Uvarint(uint64(len(blob)))
		w = append(w, blob...)
	}
	return w.Seal(0)
}

// restoreFederated rebuilds every shard from a federated envelope. The
// system must be freshly built with the same Options (same shard count);
// the whole stream is read, checksummed and split into shard blobs before
// any shard is touched, and each blob then passes the classic per-shard
// restore validation.
func (s *System) restoreFederated(data []byte) error {
	r, err := wire.Open(data, fedCkptMagic, FedEnvelopeVersion, "erms: federated checkpoint")
	if err != nil {
		return err
	}
	router, used, err := federation.Decode(r.Rest())
	if err != nil {
		return fmt.Errorf("erms: federated checkpoint router: %w", err)
	}
	if router.Shards() != len(s.shards) {
		return fmt.Errorf("erms: checkpoint has %d shards, system has %d",
			router.Shards(), len(s.shards))
	}
	r.Skip(used)
	blobs := make([][]byte, len(s.shards))
	for i := range blobs {
		blobs[i] = r.Bytes(fmt.Sprintf("shard %d blob", i), uint64(len(data)))
	}
	if err := r.End(); err != nil {
		return err
	}
	for i, sh := range s.shards {
		if err := sh.restored(sh.cluster.RestoreCheckpointBytes(blobs[i])); err != nil {
			return fmt.Errorf("erms: shard %d restore: %w", i, err)
		}
	}
	return nil
}

// Restore rebuilds the namenode's state from a checkpoint stream. The
// system must be freshly built with the same Options (no files created,
// no time advanced past the checkpoint's capture time); restore is
// all-or-nothing and advances the clock to the capture time. Note the
// ERMS judge starts cold after a restore — heat windows re-warm from live
// traffic, exactly as they would after a real namenode failover.
//
// If the system carries a journal (Options.EnableJournal), it is realigned
// to continue the restored sequence numbering, so a checkpoint of the
// restored system re-encodes byte-identically to one from the original.
func (s *System) Restore(r io.Reader) error {
	if len(s.shards) == 1 {
		return s.shards[0].restored(s.shards[0].cluster.RestoreCheckpoint(r))
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("erms: federated checkpoint read: %w", err)
	}
	return s.restoreFederated(data)
}

// restored finishes a shard's restore that returned err: on success its
// journal, if it has one, is realigned to the restored sequence number.
func (sh *Shard) restored(err error) error {
	if err == nil && sh.cluster.Journal() != nil {
		sh.cluster.SetJournal(auditlog.NewJournalAt(sh.cluster.RestoredJournalSeq()))
	}
	return err
}

// StateDigest fingerprints the durable namenode state (see
// hdfs.Cluster.StateDigest): two systems with equal digests agree on the
// namespace, block map, replica lists, and node lifecycle states. One
// shard digests as its cluster does (the digest every recorded golden
// holds); with more shards the per-shard digests are mixed with the shard
// index so re-homing a file between shards changes the digest.
func (s *System) StateDigest() uint64 {
	if len(s.shards) == 1 {
		return s.shards[0].cluster.StateDigest()
	}
	h := wire.NewDigest()
	h.U64(federation.RouterVersion)
	h.U64(uint64(len(s.shards)))
	for i, sh := range s.shards {
		h.U64(uint64(i))
		h.U64(sh.cluster.StateDigest())
	}
	return uint64(h)
}

// Journal returns shard 0's write-ahead journal, or nil unless
// EnableJournal was set (or the system was built by NewStandby); each
// shard journals independently (Shard(i).Journal()).
func (s *System) Journal() *Journal { return s.shards[0].Journal() }

// NewStandby commissions a standby namenode: a fresh one-shard system
// built from opts that restores the checkpoint and replays the journal
// tail, ending with durable state identical (same StateDigest) to the
// namenode that wrote them. opts must match the failed system's Options —
// the checkpoint's config digest enforces the parts that matter. The
// standby gets its own journal continuing the failed namenode's sequence
// numbering, so it can itself be checkpointed and failed over.
//
// Transient work (in-flight reads, replica copies, MapReduce tasks) is
// not restored — clients retry, exactly as in a real failover — and the
// ERMS judge starts cold, re-warming its heat windows from live traffic.
func NewStandby(opts Options, checkpoint io.Reader, tail []JournalEntry) (*System, error) {
	if opts.Shards > 1 {
		return nil, fmt.Errorf("erms: NewStandby commissions one namenode; shards of a running system fail over via FailoverShard")
	}
	s := newShardless(opts)
	prevEpoch := uint64(1)
	if n := len(tail); n > 0 && tail[n-1].Epoch > 0 {
		prevEpoch = tail[n-1].Epoch
	}
	ckpt, err := io.ReadAll(checkpoint)
	if err != nil {
		return nil, fmt.Errorf("standby checkpoint read: %w", err)
	}
	sh, err := s.promote(ckpt, func(c *hdfs.Cluster) error { return c.ReplayJournal(tail) }, prevEpoch)
	if err != nil {
		return nil, fmt.Errorf("standby %w", err)
	}
	s.shards = append(s.shards, sh)
	return s, nil
}
