package erms

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"erms/internal/auditlog"
	"erms/internal/federation"
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
	body := append(make([]byte, 0, hint), fedCkptMagic...)
	body = binary.AppendUvarint(body, FedEnvelopeVersion)
	body = append(body, s.router.Encode()...)
	var blob []byte
	for _, sh := range s.shards {
		blob = sh.cluster.AppendCheckpoint(blob[:0])
		body = binary.AppendUvarint(body, uint64(len(blob)))
		body = append(body, blob...)
	}
	h := fnv.New64a()
	h.Write(body)
	return binary.LittleEndian.AppendUint64(body, h.Sum64())
}

// restoreFederated rebuilds every shard from a federated envelope. The
// system must be freshly built with the same Options (same shard count);
// the whole stream is read and checksummed before any shard is touched,
// and each blob then passes the classic per-shard restore validation.
func (s *System) restoreFederated(data []byte) error {
	if len(data) < len(fedCkptMagic)+8 {
		return fmt.Errorf("erms: federated checkpoint too short (%d bytes)", len(data))
	}
	if magic := data[:len(fedCkptMagic)]; string(magic) != fedCkptMagic {
		return fmt.Errorf("erms: checkpoint magic %q is not the federated envelope %q this %d-shard system restores from (a one-namenode ERMSCKP1 checkpoint restores into a one-shard system)",
			magic, fedCkptMagic, len(s.shards))
	}
	payload, trailer := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(payload)
	if got, want := binary.LittleEndian.Uint64(trailer), h.Sum64(); got != want {
		return fmt.Errorf("erms: federated checkpoint checksum mismatch (%#x != %#x)", got, want)
	}
	br := bytes.NewReader(payload[len(fedCkptMagic):])
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("erms: federated checkpoint version: %w", err)
	}
	if version != FedEnvelopeVersion {
		return fmt.Errorf("erms: unsupported federated envelope version %d (want %d)",
			version, FedEnvelopeVersion)
	}
	rest := payload[len(payload)-br.Len():]
	router, used, err := federation.Decode(rest)
	if err != nil {
		return fmt.Errorf("erms: federated checkpoint router: %w", err)
	}
	if router.Shards() != len(s.shards) {
		return fmt.Errorf("erms: checkpoint has %d shards, system has %d",
			router.Shards(), len(s.shards))
	}
	br = bytes.NewReader(rest[used:])
	for i, sh := range s.shards {
		blobLen, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("erms: shard %d blob length: %w", i, err)
		}
		if blobLen > uint64(br.Len()) {
			return fmt.Errorf("erms: shard %d blob length %d exceeds remaining %d bytes",
				i, blobLen, br.Len())
		}
		blob := make([]byte, blobLen)
		if _, err := io.ReadFull(br, blob); err != nil {
			return fmt.Errorf("erms: shard %d blob: %w", i, err)
		}
		if err := sh.restore(bytes.NewReader(blob)); err != nil {
			return fmt.Errorf("erms: shard %d restore: %w", i, err)
		}
	}
	if br.Len() != 0 {
		return fmt.Errorf("erms: federated checkpoint: %d trailing bytes", br.Len())
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
		return s.shards[0].restore(r)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("erms: federated checkpoint read: %w", err)
	}
	return s.restoreFederated(data)
}

// restore loads one classic checkpoint stream into a pristine shard and
// realigns its journal, if it has one, to the restored sequence number.
func (sh *Shard) restore(r io.Reader) error {
	if err := sh.cluster.RestoreCheckpoint(r); err != nil {
		return err
	}
	if sh.cluster.Journal() != nil {
		sh.cluster.SetJournal(auditlog.NewJournalAt(sh.cluster.RestoredJournalSeq()))
	}
	return nil
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
	h := fnv.New64a()
	var buf [8]byte
	mix := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	mix(federation.RouterVersion)
	mix(uint64(len(s.shards)))
	for i, sh := range s.shards {
		mix(uint64(i))
		mix(sh.cluster.StateDigest())
	}
	return h.Sum64()
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
	sh, err := s.promote(checkpoint, tail, prevEpoch)
	if err != nil {
		return nil, fmt.Errorf("standby %w", err)
	}
	s.shards = append(s.shards, sh)
	return s, nil
}
