package erms_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"erms"
	"erms/internal/federation"
	"erms/internal/hdfs"
	"erms/internal/invariant"
	"erms/internal/sweep"
)

// pathInShard probes numbered paths until one hashes to the wanted shard;
// the router is pinned, so these probes are stable across runs.
func pathInShard(r federation.Router, shard int, prefix string) string {
	for i := 0; ; i++ {
		p := fmt.Sprintf("%s%d", prefix, i)
		if r.Shard(p) == shard {
			return p
		}
	}
}

// fedViolations runs the cross-shard ownership oracle against a live
// federated system.
func fedViolations(sys *erms.System, expected map[string]bool) []string {
	r := sys.Router()
	shards := make([]invariant.Lister, sys.Shards())
	for i := range shards {
		shards[i] = sys.Shard(i).HDFS()
	}
	return invariant.CheckFederation(invariant.FederationTarget{
		Shards:   shards,
		Owner:    r.Shard,
		Exempt:   func(p string) bool { return strings.HasPrefix(p, erms.MoveStagePrefix+"/") },
		Expected: expected,
	})
}

// driveEquivalenceWorkload runs an identical deterministic mix — creates,
// a hot-read burst the judge reacts to, a delete, a rename, cool-down —
// on any system.
func driveEquivalenceWorkload(t *testing.T, sys *erms.System) {
	t.Helper()
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("/eq/f%02d", i)
		if err := sys.CreateFileOn(p, (64+16*float64(i))*erms.MB, 3, i%5); err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
	}
	for wave := 0; wave < 8; wave++ {
		wave := wave
		sys.Engine().Schedule(time.Duration(wave)*time.Minute, func() {
			for c := 0; c < 10; c++ {
				sys.Read(c, "/eq/f03", nil)
			}
		})
	}
	sys.RunFor(12 * time.Minute)
	if err := sys.Delete("/eq/f07"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Rename("/eq/f08", "/eq/r08"); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(30 * time.Minute)
}

// TestShardOneEquivalence pins the one-namenode deployment against the
// last commit that had a separate non-federated code path (0014dab):
// testdata/shard_one_equivalence.golden is what driveEquivalenceWorkload
// yielded there on Options{EnableJournal: true} — state digest, SHA-256 of
// the checkpoint bytes, journal length and hash, decisions hash, metrics,
// storage, energy — identically for Shards 0 and 1. Both spellings must
// still yield exactly that, so every pre-federation experiment and figure
// regenerates byte-identically. The file has no -update path on purpose:
// it is a recording of that commit, not of this one.
func TestShardOneEquivalence(t *testing.T) {
	want, err := os.ReadFile("testdata/shard_one_equivalence.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1} {
		sys := erms.NewSystem(erms.Options{EnableJournal: true, Shards: shards})
		if sys.Shards() != 1 {
			t.Fatalf("Shards: %d builds %d shards, want 1", shards, sys.Shards())
		}
		driveEquivalenceWorkload(t, sys)
		var ckpt bytes.Buffer
		if err := sys.Checkpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(ckpt.Bytes(), []byte("ERMSCKP1")) {
			t.Errorf("Shards: %d checkpoint starts %q, want the classic ERMSCKP1 stream", shards, ckpt.Bytes()[:8])
		}
		entries := sys.Journal().Entries()
		jh := sha256.New()
		for _, e := range entries {
			fmt.Fprintf(jh, "%+v\n", e)
		}
		got := fmt.Sprintf(" digest=%#x\n ckpt=%x\n journal=%d %x\n decisions=%x\n metrics=%+v\n storage=%v\n energy=%+v\n",
			sys.StateDigest(), sha256.Sum256(ckpt.Bytes()), len(entries), jh.Sum(nil),
			sha256.Sum256([]byte(fmt.Sprint(sys.Decisions()))), sys.Metrics(), sys.StorageUsed(), sys.Energy())
		if got != string(want) {
			t.Errorf("Shards: %d drifted from the 0014dab recording:\n--- got ---\n%s--- want ---\n%s", shards, got, want)
		}
		// The classic stream restores into either spelling.
		for _, into := range []int{0, 1} {
			fresh := erms.NewSystem(erms.Options{EnableJournal: true, Shards: into})
			if err := fresh.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
				t.Errorf("checkpoint from Shards: %d into Shards: %d: %v", shards, into, err)
			} else if fresh.StateDigest() != sys.StateDigest() {
				t.Errorf("checkpoint from Shards: %d into Shards: %d: digest differs", shards, into)
			}
			fresh.Stop()
		}
		sys.Stop()
	}
}

// TestOneShardFailover is the behaviour the single shape makes reachable:
// a default deployment (no Shards set) snapshots and fails over its one
// namenode in place, like any other shard.
func TestOneShardFailover(t *testing.T) {
	sys := erms.NewSystem(erms.Options{EnableJournal: true})
	defer sys.Stop()
	driveEquivalenceWorkload(t, sys)
	if err := sys.FailoverShard(0); err == nil {
		t.Error("failover without a snapshot accepted")
	}
	if err := sys.SnapshotShards(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateFile("/eq/late", 96*erms.MB); err != nil {
		t.Fatal(err)
	}
	if err := sys.Delete("/eq/f02"); err != nil {
		t.Fatal(err)
	}
	before, old := sys.StateDigest(), sys.HDFS()
	epoch := old.Epoch()
	if err := sys.FailoverShard(0); err != nil {
		t.Fatal(err)
	}
	if got := sys.StateDigest(); got != before {
		t.Errorf("digest %#x after failover, %#x before", got, before)
	}
	if sys.HDFS() == old || sys.Manager() == nil {
		t.Error("shard 0 accessors still answer for the deposed namenode")
	}
	if got := sys.HDFS().Epoch(); got != epoch+1 || sys.Journal().Epoch() != got {
		t.Errorf("epoch %d (journal %d) after failover, want %d", got, sys.Journal().Epoch(), epoch+1)
	}
	if _, err := old.CreateFile("/eq/zombie", erms.MB, 0, 0); !errors.Is(err, hdfs.ErrFenced) {
		t.Errorf("deposed writer's create: %v, want ErrFenced", err)
	}
	if err := sys.CreateFile("/eq/after", 64*erms.MB); err != nil {
		t.Errorf("promoted namenode rejects writes: %v", err)
	}
	if err := sys.FailoverShard(1); err == nil {
		t.Error("failover of a shard that does not exist accepted")
	}
	if errs := invariant.Check(invariant.Target{Cluster: sys.HDFS()}); errs != nil {
		t.Errorf("after failover: %v", errs)
	}
}

// TestFederatedRoutingAndAggregation covers the facade's routing and the
// cluster-wide views: every file lives in exactly its router-assigned
// shard, reads route there, metrics/storage aggregate across block pools,
// and node lifecycle fans out globally while ERMS repairs per shard.
func TestFederatedRoutingAndAggregation(t *testing.T) {
	sys := erms.NewSystem(erms.Options{Shards: 4, EnableJournal: true})
	defer sys.Stop()
	r := sys.Router()
	if r.Shards() != 4 || sys.Shards() != 4 {
		t.Fatalf("router %d shards, system %d; want 4", r.Shards(), sys.Shards())
	}
	model := map[string]bool{}
	var total float64
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("/agg/f%02d", i)
		if err := sys.CreateFile(p, 96*erms.MB); err != nil {
			t.Fatal(err)
		}
		model[p] = true
		total += 3 * 96 * erms.MB
	}
	if v := fedViolations(sys, model); v != nil {
		t.Fatalf("ownership after creates: %v", v)
	}
	done := 0
	for p := range model {
		sys.Read(1, p, func(res *erms.ReadResult) {
			if res.Err == nil {
				done++
			}
		})
	}
	sys.RunFor(5 * time.Minute)
	if done != len(model) {
		t.Errorf("reads completed = %d of %d", done, len(model))
	}
	if got := sys.Metrics().ReadsCompleted; got < len(model) {
		t.Errorf("aggregated ReadsCompleted = %d, want >= %d", got, len(model))
	}
	if got := sys.StorageUsed(); got < total {
		t.Errorf("aggregated storage = %v, want >= %v", got, total)
	}
	// Kill a datanode globally: every shard loses its block pool on that
	// machine at once; each shard's manager repairs its own pool.
	sys.KillNode(2)
	sys.RunFor(10 * time.Minute)
	sys.RestartNode(2)
	sys.RunFor(5 * time.Minute)
	for i := 0; i < sys.Shards(); i++ {
		if errs := invariant.Check(invariant.Target{Cluster: sys.Shard(i).HDFS()}); errs != nil {
			t.Errorf("shard %d after kill/restart: %v", i, errs)
		}
	}
	if v := fedViolations(sys, model); v != nil {
		t.Errorf("ownership after kill/restart: %v", v)
	}
}

func newMoveSystem(shards int) *erms.System {
	return erms.NewSystem(erms.Options{
		Shards: shards, Nodes: 9, StandbyNodes: -1,
		EnableJournal: true, DisableERMS: true,
	})
}

func TestCrossShardMoveRun(t *testing.T) {
	sys := newMoveSystem(3)
	r := sys.Router()
	src := pathInShard(r, 0, "/mv/src")
	dst := pathInShard(r, 1, "/mv/dst")
	if err := sys.CreateFileOn(src, 96*erms.MB, 2, -1); err != nil {
		t.Fatal(err)
	}

	// Guard rails before the protocol runs.
	if _, err := sys.StartMove(src, pathInShard(r, 0, "/mv/same")); err == nil {
		t.Error("same-shard move accepted")
	}
	if _, err := sys.StartMove("/mv/missing", dst); err == nil {
		t.Error("move of missing file accepted")
	}
	one := erms.NewSystem(erms.Options{Nodes: 9, StandbyNodes: -1, DisableERMS: true})
	if _, err := one.StartMove(src, dst); err == nil || !strings.Contains(err.Error(), "both live in shard 0") {
		t.Errorf("StartMove on a one-shard system: %v, want the same-shard rejection", err)
	}

	mv, err := sys.StartMove(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := mv.Step(); err != nil { // journal the intent
		t.Fatal(err)
	}
	// The journaled intent is what guards against a duplicate move.
	if _, err := sys.StartMove(src, pathInShard(r, 2, "/mv/other")); err == nil {
		t.Error("second in-flight move of the same source accepted")
	}
	if err := mv.Run(); err != nil {
		t.Fatal(err)
	}
	if !mv.Done() {
		t.Error("Run left the move unfinished")
	}
	if err := mv.Step(); err == nil {
		t.Error("Step past completion accepted")
	}
	if sys.Shard(0).HDFS().File(src) != nil {
		t.Error("source survived the move")
	}
	if sys.Shard(1).HDFS().File(dst) == nil {
		t.Error("destination missing after the move")
	}
	if got := sys.Replication(dst); got != 2 {
		t.Errorf("moved file replication = %d, want 2", got)
	}
	for i := 0; i < sys.Shards(); i++ {
		if pm := sys.Shard(i).HDFS().PendingMoves(); pm != nil {
			t.Errorf("shard %d still has pending moves: %+v", i, pm)
		}
	}
	if v := fedViolations(sys, map[string]bool{src: false, dst: true}); v != nil {
		t.Errorf("oracle after move: %v", v)
	}

	// The facade Rename runs the same protocol when paths cross shards.
	src2 := pathInShard(r, 2, "/mv/r src")
	dst2 := pathInShard(r, 0, "/mv/rdst")
	if err := sys.CreateFile(src2, 64*erms.MB); err != nil {
		t.Fatal(err)
	}
	if err := sys.Rename(src2, dst2); err != nil {
		t.Fatal(err)
	}
	if sys.Shard(0).HDFS().File(dst2) == nil || sys.Shard(2).HDFS().File(src2) != nil {
		t.Error("facade cross-shard Rename did not relocate the file")
	}
}

// TestMoveCrashRecoveryAtEveryStep crashes either protocol participant
// between every pair of protocol steps and asserts the recovery contract:
// before the commit marker the move rolls back (source keeps the file),
// from the commit on it rolls forward (destination gets it) — and in
// every case exactly one shard owns exactly one copy.
func TestMoveCrashRecoveryAtEveryStep(t *testing.T) {
	for k := 0; k <= 4; k++ {
		for _, failDst := range []bool{false, true} {
			name := fmt.Sprintf("steps=%d/fail=src", k)
			if failDst {
				name = fmt.Sprintf("steps=%d/fail=dst", k)
			}
			t.Run(name, func(t *testing.T) {
				sys := newMoveSystem(2)
				r := sys.Router()
				src := pathInShard(r, 0, "/cr/s")
				dst := pathInShard(r, 1, "/cr/d")
				if err := sys.CreateFileOn(src, 64*erms.MB, 3, -1); err != nil {
					t.Fatal(err)
				}
				if err := sys.SnapshotShards(); err != nil {
					t.Fatal(err)
				}
				mv, err := sys.StartMove(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < k; i++ {
					if err := mv.Step(); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
				idx := 0
				if failDst {
					idx = 1
				}
				if err := sys.FailoverShard(idx); err != nil {
					t.Fatalf("failover shard %d: %v", idx, err)
				}
				committed := k >= 3
				srcF := sys.Shard(0).HDFS().File(src)
				dstF := sys.Shard(1).HDFS().File(dst)
				if committed && (srcF != nil || dstF == nil) {
					t.Errorf("committed move: src=%v dst=%v, want rolled forward", srcF != nil, dstF != nil)
				}
				if !committed && (srcF == nil || dstF != nil) {
					t.Errorf("uncommitted move: src=%v dst=%v, want rolled back", srcF != nil, dstF != nil)
				}
				for i := 0; i < sys.Shards(); i++ {
					if pm := sys.Shard(i).HDFS().PendingMoves(); pm != nil {
						t.Errorf("shard %d pending after recovery: %+v", i, pm)
					}
				}
				if v := fedViolations(sys, map[string]bool{src: !committed, dst: committed}); v != nil {
					t.Errorf("oracle: %v", v)
				}
			})
		}
	}
}

// TestResolveMovesBranches pins the three recovery branches FailoverShard
// cannot reach when the journal tail is complete: rollback that must
// delete a live staging copy, roll-forward that must re-copy from the
// source because the destination lost the staging file, and orphaned
// staging files whose move record predates the retained journal.
func TestResolveMovesBranches(t *testing.T) {
	sys := newMoveSystem(2)
	r := sys.Router()

	// Rollback with the staging copy present (crash between copy and commit).
	src := pathInShard(r, 0, "/rb/s")
	dst := pathInShard(r, 1, "/rb/d")
	if err := sys.CreateFileOn(src, 64*erms.MB, 2, -1); err != nil {
		t.Fatal(err)
	}
	mv, err := sys.StartMove(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // intent + copy
		if err := mv.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := sys.ResolveMoves(); err != nil || n != 1 {
		t.Fatalf("rollback resolve = %d, %v; want 1, nil", n, err)
	}
	if sys.Shard(0).HDFS().File(src) == nil || sys.Shard(1).HDFS().File(dst) != nil ||
		sys.Shard(1).HDFS().File(erms.MoveStagePrefix+dst) != nil {
		t.Error("rollback left the wrong copies")
	}

	// Roll-forward re-copy: committed, but the destination lost the staging
	// file (its checkpoint predated the copy and the tail was truncated).
	mv, err = sys.StartMove(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // intent + copy + commit
		if err := mv.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Shard(1).HDFS().DeleteFile(erms.MoveStagePrefix + dst); err != nil {
		t.Fatal(err)
	}
	if n, err := sys.ResolveMoves(); err != nil || n != 1 {
		t.Fatalf("re-copy resolve = %d, %v; want 1, nil", n, err)
	}
	if sys.Shard(0).HDFS().File(src) != nil || sys.Shard(1).HDFS().File(dst) == nil {
		t.Error("re-copy did not roll the move forward")
	}
	if got := sys.Replication(dst); got != 2 {
		t.Errorf("re-copied replication = %d, want 2", got)
	}

	// Orphaned staging file: no pending record anywhere names it.
	if _, err := sys.Shard(0).HDFS().CreateFile(erms.MoveStagePrefix+"/orphan", 32*erms.MB, 2, -1); err != nil {
		t.Fatal(err)
	}
	if n, err := sys.ResolveMoves(); err != nil || n != 1 {
		t.Fatalf("orphan resolve = %d, %v; want 1, nil", n, err)
	}
	if sys.Shard(0).HDFS().File(erms.MoveStagePrefix+"/orphan") != nil {
		t.Error("orphaned staging file survived")
	}
	// Idempotent at quiescence.
	if n, err := sys.ResolveMoves(); err != nil || n != 0 {
		t.Fatalf("quiescent resolve = %d, %v; want 0, nil", n, err)
	}
}

// TestResolveMovesOrphanOrder: the orphan scan reads the intern table, not
// the sorted path list, but still drops what it finds in ascending path
// order — two orphans interned in descending order leave exactly the journal
// entries that deleting them by hand, smaller path first, leaves.
func TestResolveMovesOrphanOrder(t *testing.T) {
	build := func() *erms.System {
		sys := newMoveSystem(2)
		for _, p := range []string{erms.MoveStagePrefix + "/z-late", "/plain", erms.MoveStagePrefix + "/a-early"} {
			if _, err := sys.Shard(1).HDFS().CreateFile(p, 96*erms.MB, 2, -1); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}
	sys, byHand := build(), build()
	seq := sys.Shard(1).Journal().NextSeq()
	if n, err := sys.ResolveMoves(); err != nil || n != 2 {
		t.Fatalf("resolve = %d, %v; want 2, nil", n, err)
	}
	for _, p := range []string{erms.MoveStagePrefix + "/a-early", erms.MoveStagePrefix + "/z-late"} {
		if err := byHand.Shard(1).HDFS().DeleteFile(p); err != nil {
			t.Fatal(err)
		}
	}
	got, want := sys.Shard(1).Journal().Tail(seq), byHand.Shard(1).Journal().Tail(seq)
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("resolve journaled %d entries, deleting by hand %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("journal entry %d: resolve wrote %v, ascending path order writes %v", i, got[i], want[i])
		}
	}
	if sys.Shard(1).HDFS().File("/plain") == nil || sys.StateDigest() != byHand.StateDigest() {
		t.Error("resolve touched more than the two orphans")
	}
}

func TestFederatedCheckpointRoundTrip(t *testing.T) {
	opts := erms.Options{Shards: 3, Nodes: 9, StandbyNodes: -1, EnableJournal: true, DisableERMS: true}
	sys := erms.NewSystem(opts)
	for i := 0; i < 9; i++ {
		if err := sys.CreateFile(fmt.Sprintf("/ck/f%d", i), 64*erms.MB); err != nil {
			t.Fatal(err)
		}
	}
	sys.RunFor(2 * time.Minute)
	var buf bytes.Buffer
	if err := sys.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	restored := erms.NewSystem(opts)
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if restored.StateDigest() != sys.StateDigest() {
		t.Error("digest mismatch after federated round trip")
	}
	// The restored system re-encodes the envelope byte-identically — the
	// journal realignment keeps sequence numbering continuous.
	var again bytes.Buffer
	if err := restored.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("re-checkpoint is not byte-identical")
	}

	// Corruption anywhere in the envelope is rejected before any shard is
	// touched.
	for _, off := range []int{0, 5, len(fedCkptProbe(buf.Bytes())), buf.Len() / 2, buf.Len() - 1} {
		mut := append([]byte(nil), buf.Bytes()...)
		mut[off] ^= 0x40
		if err := erms.NewSystem(opts).Restore(bytes.NewReader(mut)); err == nil {
			t.Errorf("corrupt byte at %d accepted", off)
		}
	}
	if err := erms.NewSystem(opts).Restore(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated envelope accepted")
	}
	// Shard-count mismatch: a 3-shard envelope cannot restore a 2-shard
	// system.
	mis := opts
	mis.Shards = 2
	if err := erms.NewSystem(mis).Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("3-shard envelope restored into a 2-shard system")
	}
}

// fedCkptProbe returns the offset of the first shard blob, so the
// corruption loop hits the envelope header, a blob, and the trailer.
func fedCkptProbe(b []byte) []byte {
	if len(b) > 16 {
		return b[:16]
	}
	return b
}

// TestFederatedSweepDeterminism runs shards∈{2,4} cells — workload, a
// cross-shard move, a failover — on the sweep engine at worker counts 1
// and 8: per-cell digests and the merged report must be identical
// (DESIGN.md §11 worker-count invariance), which is what lets judge
// passes parallelize shard-per-worker without changing results.
func TestFederatedSweepDeterminism(t *testing.T) {
	type cell struct {
		shards int
		seed   int64
	}
	var cells []cell
	for _, n := range []int{2, 4} {
		for s := int64(1); s <= 3; s++ {
			cells = append(cells, cell{n, s})
		}
	}
	run := func(parallel int) (string, []uint64) {
		digests := make([]uint64, len(cells))
		tasks := make([]sweep.Task, len(cells))
		for i, c := range cells {
			i, c := i, c
			tasks[i] = sweep.Task{
				Name: fmt.Sprintf("shards=%d/seed=%d", c.shards, c.seed),
				Run: func(ctx context.Context) (string, error) {
					d, err := runFedCell(c.shards, c.seed)
					if err != nil {
						return "", err
					}
					digests[i] = d
					return fmt.Sprintf("shards=%d seed=%d digest=%016x\n", c.shards, c.seed, d), nil
				},
			}
		}
		results, err := sweep.Run(context.Background(), sweep.Options{Parallel: parallel}, tasks)
		if err != nil {
			t.Fatalf("sweep (parallel=%d): %v", parallel, err)
		}
		return sweep.Merged(results), digests
	}
	serial, d1 := run(1)
	wide, d8 := run(8)
	if serial != wide {
		t.Errorf("merged reports differ between 1 and 8 workers:\n%s\nvs\n%s", serial, wide)
	}
	for i := range d1 {
		if d1[i] != d8[i] {
			t.Errorf("cell %s digest %016x (1 worker) != %016x (8 workers)",
				fmt.Sprintf("shards=%d/seed=%d", cells[i].shards, cells[i].seed), d1[i], d8[i])
		}
	}
}

// runFedCell is one deterministic federated simulation: seed-varied
// creates and reads, a cross-shard move, a failover mid-run.
func runFedCell(shards int, seed int64) (uint64, error) {
	sys := erms.NewSystem(erms.Options{Shards: shards, EnableJournal: true})
	defer sys.Stop()
	r := sys.Router()
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("/cell/s%d/f%d", seed, i)
		if err := sys.CreateFile(p, (32+float64((seed+int64(i))%5)*16)*erms.MB); err != nil {
			return 0, err
		}
		sys.Read(int(seed+int64(i))%9, p, nil)
	}
	if err := sys.SnapshotShards(); err != nil {
		return 0, err
	}
	src := pathInShard(r, 0, fmt.Sprintf("/cell/s%d/mv", seed))
	dst := pathInShard(r, shards-1, fmt.Sprintf("/cell/s%d/mvdst", seed))
	if err := sys.CreateFile(src, 64*erms.MB); err != nil {
		return 0, err
	}
	mv, err := sys.StartMove(src, dst)
	if err != nil {
		return 0, err
	}
	for i := 0; i < int(seed)%4; i++ { // crash the move at a seed-varied step
		if err := mv.Step(); err != nil {
			return 0, err
		}
	}
	if err := sys.FailoverShard(int(seed) % shards); err != nil {
		return 0, err
	}
	sys.RunFor(10 * time.Minute)
	return sys.StateDigest(), nil
}

// FuzzDecodeFederatedCheckpoint feeds mutated federated envelopes to
// Restore: malformed input must error, never panic, and never partially
// apply.
func FuzzDecodeFederatedCheckpoint(f *testing.F) {
	opts := erms.Options{Shards: 2, Nodes: 6, StandbyNodes: -1, DisableERMS: true}
	seedSys := erms.NewSystem(opts)
	if err := seedSys.CreateFile("/fz/a", 32*erms.MB); err != nil {
		f.Fatal(err)
	}
	if err := seedSys.CreateFile("/fz/b", 64*erms.MB); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := seedSys.Checkpoint(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("ERMSFEDC"))
	f.Add([]byte{})
	// The other on-disk format: every input is also restored into a
	// one-namenode system, so the federated seed above is the
	// federated-into-classic case and this one classic-into-federated.
	classicOpts := opts
	classicOpts.Shards = 1
	classicSys := erms.NewSystem(classicOpts)
	if err := classicSys.CreateFile("/fz/a", 32*erms.MB); err != nil {
		f.Fatal(err)
	}
	var classic bytes.Buffer
	if err := classicSys.Checkpoint(&classic); err != nil {
		f.Fatal(err)
	}
	f.Add(classic.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, o := range []erms.Options{opts, classicOpts} {
			sys := erms.NewSystem(o)
			if err := sys.Restore(bytes.NewReader(data)); err == nil {
				// Accepted input must leave a coherent system.
				_ = sys.StateDigest()
				for i := 0; i < sys.Shards(); i++ {
					if errs := sys.Shard(i).HDFS().ConsistencyErrors(); errs != nil {
						t.Fatalf("accepted checkpoint left shard %d of %d inconsistent: %v", i, sys.Shards(), errs)
					}
				}
			}
		}
	})
}

// TestRestoreRejectsForeignMagic feeds each on-disk format to a system of
// the other shape. Both carry a valid checksum, so only the magic tells
// them apart: the refusal must come from it and name both formats, not
// surface later as a version or router error.
func TestRestoreRejectsForeignMagic(t *testing.T) {
	checkpointOf := func(shards int) []byte {
		sys := erms.NewSystem(erms.Options{Shards: shards, Nodes: 6, StandbyNodes: -1, DisableERMS: true})
		if err := sys.CreateFile("/magic/a", 32*erms.MB); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sys.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name         string
		from, into   int
		wantMentions []string
	}{
		{"classic into federated", 1, 4, []string{"magic", "ERMSCKP1", "ERMSFEDC"}},
		{"federated into classic", 4, 1, []string{"magic", "ERMSFEDC"}},
	} {
		sys := erms.NewSystem(erms.Options{Shards: tc.into, Nodes: 6, StandbyNodes: -1, DisableERMS: true})
		err := sys.Restore(bytes.NewReader(checkpointOf(tc.from)))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, want := range tc.wantMentions {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
			}
		}
		if sys.HDFS().Files() != 0 {
			t.Errorf("%s: refused restore left %d files behind", tc.name, sys.HDFS().Files())
		}
	}
}
