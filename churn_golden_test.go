package erms_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"erms"
	"erms/internal/auditlog"
)

// churnFailoverTranscript drives a seeded metadata workload on four
// journaled shards — creates, deletes, same- and cross-shard renames, a
// read burst the judges react to, and every sixth batch a cross-shard move
// crashed part-way, a FailoverShard and a SnapshotShards — and records what
// the failover cycle is made of: each shard's checkpoint bytes and journal
// (count and wire encoding), the state digest and the decisions taken.
func churnFailoverTranscript(t *testing.T, seed int64) string {
	t.Helper()
	opts := erms.Options{Shards: 4, EnableJournal: true, JudgePeriod: time.Minute}
	opts.Thresholds.ColdAge = 20 * time.Minute
	sys := erms.NewSystem(opts)
	defer sys.Stop()
	rng := rand.New(rand.NewSource(seed))
	router := sys.Router()
	var (
		out    strings.Builder
		live   []string
		nextID int
	)
	fresh := func(prefix string) string {
		nextID++
		return fmt.Sprintf("/churn/%s%05d", prefix, nextID)
	}
	drop := func(i int) {
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	create := func() {
		p := fresh("f")
		if err := sys.CreateFileOn(p, float64(16+rng.Intn(241))*erms.MB, 0, rng.Intn(18)); err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
		live = append(live, p)
	}
	record := func(label string) {
		fmt.Fprintf(&out, "%s now=%v digest=%#x decisions=%x\n", label, sys.Now(), sys.StateDigest(),
			sha256.Sum256([]byte(fmt.Sprint(sys.Decisions()))))
		for i := 0; i < sys.Shards(); i++ {
			var ckpt, wire bytes.Buffer
			if err := sys.Shard(i).HDFS().WriteCheckpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
			entries := sys.Shard(i).Journal().Entries()
			if err := auditlog.EncodeEntries(&wire, entries); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, " shard %d files=%d ckpt=%d %x journal=%d next=%d epoch=%d %x\n", i,
				sys.Shard(i).HDFS().Files(), ckpt.Len(), sha256.Sum256(ckpt.Bytes()),
				len(entries), sys.Shard(i).Journal().NextSeq(), sys.Shard(i).Journal().Epoch(),
				sha256.Sum256(wire.Bytes()))
		}
		var fed bytes.Buffer
		if err := sys.Checkpoint(&fed); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, " envelope=%d %x\n", fed.Len(), sha256.Sum256(fed.Bytes()))
	}

	for i := 0; i < 120; i++ {
		create()
	}
	if err := sys.SnapshotShards(); err != nil {
		t.Fatal(err)
	}
	record("preload")
	const batches, batchOps, failEvery = 24, 20, 6
	for b := 0; b < batches; b++ {
		for i := 0; i < batchOps; i++ {
			switch x := rng.Float64(); {
			case x < 0.4:
				create()
			case x < 0.7:
				k := rng.Intn(len(live))
				if err := sys.Delete(live[k]); err != nil {
					t.Fatalf("delete %s: %v", live[k], err)
				}
				drop(k)
			default:
				k, dst := rng.Intn(len(live)), fresh("r")
				if err := sys.Rename(live[k], dst); err != nil {
					t.Fatalf("rename %s: %v", live[k], err)
				}
				live[k] = dst
			}
		}
		// A burst on one file, so formula (1) and later (5) have work.
		hot := live[rng.Intn(len(live))]
		for c := 0; c < 30; c++ {
			sys.Read(rng.Intn(18), hot, nil)
		}
		sys.RunFor(2 * time.Minute)

		if (b+1)%failEvery != 0 {
			continue
		}
		// A cross-shard move cut short by the failover: ResolveMoves rolls
		// it back or forward depending on how far it got.
		k, dst := rng.Intn(len(live)), fresh("m")
		for router.Shard(dst) == router.Shard(live[k]) {
			dst = fresh("m")
		}
		mv, err := sys.StartMove(live[k], dst)
		if err != nil {
			t.Fatal(err)
		}
		steps := rng.Intn(5)
		for s := 0; s < steps; s++ {
			if err := mv.Step(); err != nil {
				t.Fatal(err)
			}
		}
		record(fmt.Sprintf("batch %d before failover (move cut after %d steps)", b+1, steps))
		shard := ((b+1)/failEvery - 1) % sys.Shards()
		if err := sys.FailoverShard(shard); err != nil {
			t.Fatal(err)
		}
		if sys.Replication(dst) > 0 {
			live[k] = dst
		}
		if err := sys.SnapshotShards(); err != nil {
			t.Fatal(err)
		}
		record(fmt.Sprintf("batch %d after failover of shard %d", b+1, shard))
	}
	sys.RunFor(30 * time.Minute)
	record("end")
	return out.String()
}

// TestChurnFailoverGolden holds the failover cycle to the bytes it wrote
// before the metadata path was optimised: testdata/churn_failover.golden
// was recorded at b7d582e (sorted-path judge sweep, flat journal slice,
// bufio checkpoint encoder) by this same function, and re-recorded at
// 6457332 when the default standby pool moved to the tail of each rack
// (hdfs.SpreadStandby). There is no -update path — a checkpoint byte, a
// journal entry, a digest or a decision that differs means the
// optimisation changed behaviour, which it may not.
func TestChurnFailoverGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/churn_failover.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := churnFailoverTranscript(t, 20) + churnFailoverTranscript(t, 2012)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("line %d: got %q, golden differs (%d vs %d lines)", i+1, gl[i], len(gl), len(wl))
		}
	}
	t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
}
