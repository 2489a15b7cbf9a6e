package experiments

import (
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"erms"
)

// shardedJudgePass returns one full judging pass over every shard of a
// 4-way federation with a populated window, reporting the decisions made.
func shardedJudgePass(b testing.TB) func() int {
	b.Helper()
	sys := erms.NewSystem(erms.Options{
		Shards:      4,
		JudgePeriod: time.Hour, // drive judging manually
	})
	e := sys.Engine()
	const nFiles = 48
	for i := 0; i < nFiles; i++ {
		if err := sys.CreateFile(fmt.Sprintf("/bench/f%03d", i), 192*erms.MB); err != nil {
			b.Fatal(err)
		}
	}
	// Spread reads across files (hotter toward low indices) inside the
	// judging window so every shard's statements have populated groups.
	for i := 0; i < 2000; i++ {
		path := fmt.Sprintf("/bench/f%03d", (i*i)%nFiles)
		e.Schedule(time.Duration(i)*100*time.Millisecond, func() {
			sys.Read(2, path, nil)
		})
	}
	e.RunUntil(5 * time.Minute) // all reads issued and streamed
	return func() int {
		total := 0
		for s := 0; s < sys.Shards(); s++ {
			total += len(sys.Shard(s).Manager().Judge().Evaluate())
		}
		return total
	}
}

// BenchmarkShardedJudgePass is the federated twin of core's
// BenchmarkJudgePass. Each shard owns its own judge and CEP pipeline, so
// the pass should cost roughly what four quarter-size single-namenode
// passes cost.
func BenchmarkShardedJudgePass(b *testing.B) {
	pass := shardedJudgePass(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pass() == 0 {
			b.Fatal("expected decisions from a hot window")
		}
	}
}

// TestShardedJudgePassAllocCeiling: like the single-judge hot path
// (core's TestJudgeAllocCeilings), the federated pass must stay
// allocation-stable.
func TestShardedJudgePassAllocCeiling(t *testing.T) {
	if raceBuild() {
		t.Skip("the ceiling is for uninstrumented builds")
	}
	pass := shardedJudgePass(t)
	if n := testing.AllocsPerRun(100, func() { pass() }); n > 79 {
		t.Errorf("ShardedJudgePass: %v allocs/op, ceiling 79", n)
	}
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

// failoverBenchSystem is the failover cycle's bench fixture: four journaled
// shards on 102 datanodes holding about 25 000 one-block files each, with a
// failover base already taken. churn then lands 1 000 creates and 1 000
// deletes a shard — a journal tail of about 10 000 entries each — the
// distance between two failovers in the end-to-end churn-failover workload.
func failoverBenchSystem(b *testing.B) (sys *erms.System, churn func()) {
	b.Helper()
	const nodes, nFiles, ops = 102, 100000, 4000
	sys = erms.NewSystem(erms.Options{
		Racks: 17, Nodes: nodes, Shards: 4, EnableJournal: true,
		JudgePeriod: time.Hour, // no pass inside the timed region
	})
	created, deleted := 0, 0
	create := func() {
		if err := sys.CreateFileOn(fmt.Sprintf("/fo/f%07d", created), erms.MB, 0, created%nodes); err != nil {
			b.Fatal(err)
		}
		created++
	}
	for created < nFiles {
		create()
	}
	if err := sys.SnapshotShards(); err != nil {
		b.Fatal(err)
	}
	return sys, func() {
		for i := 0; i < ops; i++ {
			create()
			if err := sys.Delete(fmt.Sprintf("/fo/f%07d", deleted)); err != nil {
				b.Fatal(err)
			}
			deleted++
		}
	}
}

// BenchmarkSnapshotShards is the failover base refreshed on a namespace
// that has not changed size: four checkpoint encodes, each into the bytes
// of the snapshot it replaces.
func BenchmarkSnapshotShards(b *testing.B) {
	sys, _ := failoverBenchSystem(b)
	defer sys.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.SnapshotShards(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailoverShard is time-to-recover for one shard: copy out the
// 10 000-entry journal tail, restore the 25 000-file snapshot, replay the
// tail, build the new manager, re-snapshot, resolve moves. The churn that
// grows the tail and the snapshot of the other shards are not timed.
func BenchmarkFailoverShard(b *testing.B) {
	sys, churn := failoverBenchSystem(b)
	defer sys.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		churn()
		b.StartTimer()
		if err := sys.FailoverShard(i % sys.Shards()); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := sys.SnapshotShards(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
