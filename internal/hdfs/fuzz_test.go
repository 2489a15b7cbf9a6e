package hdfs

import (
	"bytes"
	"testing"
	"time"

	"erms/internal/sim"
	"erms/internal/topology"
	"erms/internal/wire"
)

// fuzzSeedCheckpoint builds a small real checkpoint to seed the corpus.
func fuzzSeedCheckpoint() []byte {
	e := sim.NewEngine()
	c := New(e, Config{Topology: topology.New(topology.Config{})})
	c.CreateFile("/a", 200*mb, 3, -1)
	c.CreateFile("/b", 64*mb, 1, -1)
	e.RunUntil(30 * time.Second)
	c.Kill(3)
	c.ToStandby(5)
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzDecodeCheckpoint: RestoreCheckpoint must never panic on arbitrary
// bytes, and must be all-or-nothing — either it errors and the cluster is
// untouched (still pristine), or it succeeds into a state that passes
// ConsistencyErrors and re-encodes to the identical byte stream.
//
// Each input runs twice: as given, where nearly every mutation dies at the
// checksum, and with its trailer re-sealed, so mutations reach the field
// decoders and validation. The re-sealed run applies only when the header
// claims at most 1<<16 block IDs: restore sizes its O(nextBlock) arrays
// from that claim, about 46 bytes a block, so a forged 197-byte checkpoint
// claiming 2^26 blocks makes it allocate 3.1 GB and a fuzz worker that
// meets one runs out of memory. The as-given run keeps no bound.
func FuzzDecodeCheckpoint(f *testing.F) {
	seed := fuzzSeedCheckpoint()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(checkpointMagic)+4])
	f.Add([]byte("ERMSCKP1"))
	f.Add([]byte("not a checkpoint"))
	f.Add([]byte{})
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)

	check := func(t *testing.T, data []byte) {
		e := sim.NewEngine()
		c := New(e, Config{Topology: topology.New(topology.Config{})})
		if err := c.RestoreCheckpoint(bytes.NewReader(data)); err != nil {
			if c.Files() != 0 || c.LiveBlocks() != 0 || c.nextBlock != 0 {
				t.Fatalf("failed restore left state behind: %d files, %d blocks", c.Files(), c.LiveBlocks())
			}
			return
		}
		if errs := c.ConsistencyErrors(); errs != nil {
			t.Fatalf("accepted checkpoint is inconsistent: %v", errs)
		}
		var out bytes.Buffer
		if err := c.WriteCheckpoint(&out); err != nil {
			t.Fatalf("re-encoding accepted checkpoint: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted checkpoint does not re-encode canonically (%d vs %d bytes)",
				out.Len(), len(data))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		if len(data) < 8 {
			return
		}
		resealed := wire.Writer(append([]byte(nil), data[:len(data)-8]...)).Seal(0)
		if r, err := wire.Open(resealed, checkpointMagic, CheckpointVersion, ""); err == nil {
			r.Fixed64("config digest")
			r.Uvarint("capture time")
			r.Uvarint("journal seq")
			if r.Uvarint("nextBlock") > 1<<16 {
				return
			}
		}
		check(t, resealed)
	})
}
