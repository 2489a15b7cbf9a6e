package erms_test

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"erms"
	"erms/internal/hdfs"
)

// TestEmptyPathRejected: "" never enters the namespace — not by create,
// pipelined write or rename, on one shard or two — so the snapshot →
// failover → restore cycle, whose checkpoint decode refuses an empty path,
// keeps working afterwards.
func TestEmptyPathRejected(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := erms.Options{Shards: shards, EnableJournal: true}
			sys := erms.NewSystem(opts)
			defer sys.Stop()
			var paths []string
			for i := 0; i < 6; i++ {
				p := fmt.Sprintf("/e/f%02d", i)
				if err := sys.CreateFile(p, 10*erms.MB); err != nil {
					t.Fatal(err)
				}
				paths = append(paths, p)
			}
			// Each refusal is checked on the namespace too, so one
			// accepted "" cannot mask the next operation's.
			refused := func(op string, err error) {
				for i := 0; i < shards; i++ {
					if err == nil || sys.Shard(i).HDFS().File("") != nil {
						t.Fatalf(`%s: err %v, shard %d holds ""`, op, err, i)
					}
				}
			}
			var werr error
			sys.Write(1, "", 10*erms.MB, func(r *erms.WriteResult) { werr = r.Err })
			sys.RunFor(time.Minute)
			refused(`Write("")`, werr)
			refused(`CreateFile("")`, sys.CreateFile("", 10*erms.MB))
			// Renames from every shard: same-shard and cross-shard alike.
			for _, p := range paths {
				refused(fmt.Sprintf(`Rename(%q, "")`, p), sys.Rename(p, ""))
			}
			for i := 0; i < shards; i++ {
				if got := sys.Shard(i).HDFS().PendingMoves(); len(got) != 0 {
					t.Errorf("shard %d left moves open: %v", i, got)
				}
			}
			if err := sys.SnapshotShards(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < shards; i++ {
				if err := sys.FailoverShard(i); err != nil {
					t.Fatalf("failover of shard %d: %v", i, err)
				}
			}
			var ckpt bytes.Buffer
			if err := sys.Checkpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
			fresh := erms.NewSystem(opts)
			defer fresh.Stop()
			if err := fresh.Restore(&ckpt); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if fresh.StateDigest() != sys.StateDigest() {
				t.Error("restored digest differs")
			}
		})
	}
}

// TestHugeReplicationFactorBounded: TargetRepl is the caller's, so a
// create asking for far more replicas than there are datanodes places at
// most one per node, and sizing the block's replica list by the request
// must neither exhaust memory nor leave the namespace half-updated.
func TestHugeReplicationFactorBounded(t *testing.T) {
	sys := erms.NewSystem(erms.Options{})
	defer sys.Stop()
	c := sys.HDFS()
	for i, repl := range []int{1 << 40, 1 << 62} {
		p := fmt.Sprintf("/huge/f%d", i)
		if err := sys.CreateFileOn(p, 10*erms.MB, repl, 0); err != nil {
			t.Fatalf("repl %d: %v", repl, err)
		}
		if got := len(c.Replicas(c.File(p).Blocks[0])); got < 1 || got > c.NumDatanodes() {
			t.Errorf("repl %d: %d replicas on %d datanodes", repl, got, c.NumDatanodes())
		}
	}
	if errs := c.ConsistencyErrors(); errs != nil {
		t.Fatalf("inconsistent after huge-repl creates: %v", errs)
	}
}

// TestMutationAllocCeilings holds the namespace write path to the objects
// it keeps, through the shipped ERMS placement: a placement into a sized
// buffer allocates nothing, a delete nothing, a one-block create at most
// its INode, replica list and block list (the block itself is an entry in
// the block map's table, not an object), and a cross-shard rename (the
// journaled two-phase move across two shards) at most the measured 6: the
// Move, its staging path, the pending-move record and the three objects
// the staging create keeps. With map-based placement and copying deletes
// these were 12 (below the default factor) and 7 (extras), 12, 1 and 23;
// with a heap object per block, create and rename were 4 and 7.
func TestMutationAllocCeilings(t *testing.T) {
	if raceBuild() {
		t.Skip("the ceilings are for uninstrumented builds")
	}
	const n = 400
	sys := erms.NewSystem(erms.Options{Shards: 2, EnableJournal: true})
	defer sys.Stop()
	// Warm-up: grow the namespace, block map, block sets and journals past
	// the sizes the measured loops reach, then empty the namespace again.
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/m/f%03d", i)
	}
	for round := 0; round < 2; round++ {
		for _, p := range paths {
			if err := sys.CreateFile(p, 32*erms.MB); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range paths {
			if err := sys.Delete(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	c := sys.HDFS()
	pol := c.PlacementPolicy()
	if _, err := c.CreateFile("/m/one", 32*erms.MB, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateFile("/m/three", 32*erms.MB, 3, 0); err != nil {
		t.Fatal(err)
	}
	dst := make([]hdfs.DatanodeID, 0, 4)
	for _, p := range []string{"/m/one", "/m/three"} {
		b, _ := c.Block(c.File(p).Blocks[0])
		got := testing.AllocsPerRun(100, func() { dst = pol.ChooseTargets(dst[:0], c, b, 4, -1, nil) })
		t.Logf("ChooseTargets for %s: %v allocs", p, got)
		if got != 0 {
			t.Errorf("ChooseTargets for %s: %v allocs, want 0", p, got)
		}
	}

	var shard0 []string
	for _, p := range paths {
		if sys.Router().Shard(p) == 0 {
			shard0 = append(shard0, p)
		}
	}
	create := allocsPer(t, shard0, func(p string) error { _, err := c.CreateFile(p, 32*erms.MB, 0, 0); return err })
	del := allocsPer(t, shard0, c.DeleteFile)

	// Cross-shard renames: each file is created in shard 0 and renamed to
	// a path the router assigns to shard 1.
	var moves, dsts []string
	for i := 0; len(moves) < 100; i++ {
		src, dst := fmt.Sprintf("/x/s%04d", i), fmt.Sprintf("/x/d%04d", i)
		if sys.Router().Shard(src) == 0 && sys.Router().Shard(dst) == 1 {
			if err := sys.CreateFile(src, 32*erms.MB); err != nil {
				t.Fatal(err)
			}
			moves, dsts = append(moves, src), append(dsts, dst)
		}
	}
	next := 0
	rename := allocsPer(t, moves, func(src string) error { next++; return sys.Rename(src, dsts[next-1]) })
	t.Logf("allocs: one-block CreateFile %v, DeleteFile %v, cross-shard Rename %v", create, del, rename)
	if create > 3 || del != 0 || rename > 6 {
		t.Errorf("ceilings are CreateFile 3, DeleteFile 0, cross-shard Rename 6")
	}
}

// allocsPer runs op once per item and returns testing.AllocsPerRun's
// figure for it: the mean per call, truncated, so the amortized growth of
// the block map and journal does not count against a ceiling. An error
// fails the test.
func allocsPer(t *testing.T, items []string, op func(string) error) float64 {
	t.Helper()
	next := 0
	var firstErr error
	got := testing.AllocsPerRun(len(items)-1, func() {
		if err := op(items[next]); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", items[next], err)
		}
		next++
	})
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	return got
}

// raceBuild reports whether this test binary was built with -race, whose
// instrumentation allocates on its own account.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// BenchmarkCrossShardRename measures the journaled two-phase move through
// the facade: 256 files bounce between a shard-0 path and a shard-1 path,
// so every rename crosses shards and the namespace stays the same size.
func BenchmarkCrossShardRename(b *testing.B) {
	sys := erms.NewSystem(erms.Options{Shards: 2, EnableJournal: true})
	defer sys.Stop()
	var there, back []string
	for i := 0; len(there) < 256; i++ {
		src, dst := fmt.Sprintf("/x/s%04d", i), fmt.Sprintf("/x/d%04d", i)
		if sys.Router().Shard(src) == 0 && sys.Router().Shard(dst) == 1 {
			if err := sys.CreateFile(src, 32*erms.MB); err != nil {
				b.Fatal(err)
			}
			there, back = append(there, src), append(back, dst)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(there)
		src, dst := there[j], back[j]
		if i/len(there)%2 == 1 {
			src, dst = dst, src
		}
		if err := sys.Rename(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}
