package erms_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"erms"
	"erms/internal/hdfs"
	"erms/internal/server"
	"erms/internal/sim"
	"erms/internal/workload"
)

func TestSystemDefaultsMatchPaperTestbed(t *testing.T) {
	sys := erms.NewSystem(erms.Options{})
	if got := sys.HDFS().NumDatanodes(); got != 18 {
		t.Fatalf("datanodes = %d, want 18", got)
	}
	if got := len(sys.HDFS().Standby()); got != 8 {
		t.Fatalf("standby = %d, want 8", got)
	}
	if sys.Manager() == nil {
		t.Fatal("ERMS manager missing")
	}
	if err := sys.CreateFile("/f", 128*erms.MB); err != nil {
		t.Fatal(err)
	}
	if f := sys.HDFS().File("/f"); len(f.Blocks) != 2 || f.TargetRepl != 3 {
		t.Fatalf("128 MB file: %d blocks at replication %d, want 2 blocks (64 MB) at 3", len(f.Blocks), f.TargetRepl)
	}
}

func TestVanillaModeHasNoManager(t *testing.T) {
	sys := erms.NewSystem(erms.Options{DisableERMS: true})
	if sys.Manager() != nil {
		t.Fatal("vanilla system has a manager")
	}
	if len(sys.HDFS().Standby()) != 0 {
		t.Fatal("vanilla system has standby nodes")
	}
	if sys.Decisions() != nil {
		t.Fatal("vanilla Decisions should be nil")
	}
	if sys.Energy() != (erms.EnergyReport{}) {
		t.Fatal("vanilla Energy should be zero")
	}
}

func TestCreateReadLifecycle(t *testing.T) {
	sys := erms.NewSystem(erms.Options{})
	if err := sys.CreateFile("/a", 128*erms.MB); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateFile("/a", erms.MB); err == nil {
		t.Fatal("duplicate create accepted")
	}
	var res *erms.ReadResult
	sys.Read(4, "/a", func(r *erms.ReadResult) { res = r })
	sys.RunFor(time.Minute)
	if res == nil || res.Err != nil {
		t.Fatalf("read: %+v", res)
	}
	if sys.StorageUsed() != 3*128*erms.MB {
		t.Fatalf("storage = %v", sys.StorageUsed())
	}
	if sys.Metrics().ReadsCompleted != 1 {
		t.Fatal("metrics")
	}
	if sys.Now() != time.Minute {
		t.Fatalf("Now = %v", sys.Now())
	}
}

func TestElasticReplicationThroughPublicAPI(t *testing.T) {
	sys := erms.NewSystem(erms.Options{})
	if err := sys.CreateFileOn("/hot", 256*erms.MB, 3, 2); err != nil {
		t.Fatal(err)
	}
	for wave := 0; wave < 8; wave++ {
		sys.Engine().Schedule(time.Duration(wave)*time.Minute, func() {
			for c := 0; c < 10; c++ {
				sys.Read(c, "/hot", nil)
			}
		})
	}
	sys.RunFor(12 * time.Minute)
	if got := sys.Replication("/hot"); got <= 3 {
		t.Fatalf("replication = %d, want > 3 after hot burst", got)
	}
	if len(sys.Decisions()) == 0 {
		t.Fatal("no decisions recorded")
	}
	// Cool-down shrinks and powers the pool off.
	sys.RunFor(40 * time.Minute)
	if got := sys.Replication("/hot"); got != 3 {
		t.Fatalf("replication = %d after cooldown, want 3", got)
	}
	e := sys.Energy()
	if e.PoolNodes != 8 || e.SavedNodeHours <= 0 {
		t.Fatalf("energy = %+v", e)
	}
	sys.Stop()
}

func TestWorkloadReplayThroughPublicAPI(t *testing.T) {
	trace := erms.SynthesizeWorkload(erms.WorkloadConfig{
		Seed: 2, Duration: 20 * time.Minute, NumFiles: 6,
		MeanInterarrival: 30 * time.Second, MaxFileSize: 128 * erms.MB,
	})
	sys := erms.NewSystem(erms.Options{Scheduler: "fair"})
	sys.Preload(trace)
	done := 0
	sys.ReplayJobs(trace, func(j *erms.Job) {
		if j.Err == nil {
			done++
		}
	})
	sys.RunUntil(trace.Horizon(time.Hour))
	if done != len(trace.Jobs) {
		t.Fatalf("jobs done = %d of %d", done, len(trace.Jobs))
	}
	if sys.MapReduce().Scheduler().Name() != "Fair" {
		t.Fatal("scheduler option ignored")
	}
}

func TestReplayDirectReadsThroughPublicAPI(t *testing.T) {
	trace := erms.SynthesizeWorkload(erms.WorkloadConfig{
		Seed: 5, Duration: 15 * time.Minute, NumFiles: 4,
		MeanInterarrival: time.Minute, MaxFileSize: 128 * erms.MB,
	})
	sys := erms.NewSystem(erms.Options{})
	sys.Preload(trace)
	reads := 0
	sys.ReplayReads(trace, func(r *erms.ReadResult) {
		if r.Err == nil {
			reads++
		}
	})
	sys.RunUntil(trace.Horizon(30 * time.Minute))
	if reads != len(trace.Jobs) {
		t.Fatalf("reads = %d of %d", reads, len(trace.Jobs))
	}
}

func TestStandbyPoolSizingEdgeCases(t *testing.T) {
	// -1 disables the pool; an oversized pool stops at one active node
	// per rack.
	sys := erms.NewSystem(erms.Options{StandbyNodes: -1})
	if len(sys.HDFS().Standby()) != 0 {
		t.Fatal("StandbyNodes=-1 should disable the pool")
	}
	sys2 := erms.NewSystem(erms.Options{Nodes: 6, StandbyNodes: 10})
	if got := len(sys2.HDFS().Standby()); got != 3 {
		t.Fatalf("oversized pool holds %d nodes, want 3", got)
	}
}

func TestFailureRepairThroughPublicAPI(t *testing.T) {
	sys := erms.NewSystem(erms.Options{})
	if err := sys.CreateFile("/f", 192*erms.MB); err != nil {
		t.Fatal(err)
	}
	f := sys.HDFS().File("/f")
	victim := sys.HDFS().Replicas(f.Blocks[0])[0]
	sys.HDFS().Kill(hdfs.DatanodeID(victim))
	sys.RunFor(10 * time.Minute)
	if n := len(sys.HDFS().UnderReplicated()); n != 0 {
		t.Fatalf("%d blocks still under-replicated after repair", n)
	}
	if got := len(sys.HDFS().Replicas(f.Blocks[0])); got != 3 {
		t.Fatalf("block has %d replicas after repair, want 3", got)
	}
}

func TestDefaultThresholdsExported(t *testing.T) {
	th := erms.DefaultThresholds()
	if th.TauM != 8 || th.EncodeK != 10 || th.EncodeM != 4 {
		t.Fatalf("thresholds = %+v", th)
	}
}

// TestDeterminism: two identical runs produce byte-identical decision
// histories and metrics — the property every experiment in this repository
// leans on.
func TestDeterminism(t *testing.T) {
	run := func() ([]string, erms.HDFSMetrics) {
		trace := erms.SynthesizeWorkload(erms.WorkloadConfig{
			Seed: 4, Duration: 40 * time.Minute, NumFiles: 10,
			MeanInterarrival: 10 * time.Second, MaxFileSize: 256 * erms.MB,
		})
		th := erms.DefaultThresholds()
		th.TauM = 4
		sys := erms.NewSystem(erms.Options{Thresholds: th, JudgePeriod: 5 * time.Minute})
		sys.Preload(trace)
		sys.ReplayReads(trace, nil)
		sys.RunUntil(trace.Horizon(30 * time.Minute))
		sys.Stop()
		var decisions []string
		for _, d := range sys.Decisions() {
			decisions = append(decisions, d.String())
		}
		return decisions, sys.Metrics()
	}
	d1, m1 := run()
	d2, m2 := run()
	if len(d1) == 0 {
		t.Fatal("no decisions; scenario too quiet to test determinism")
	}
	if len(d1) != len(d2) {
		t.Fatalf("decision counts differ: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("decision %d differs:\n%s\n%s", i, d1[i], d2[i])
		}
	}
	if m1 != m2 {
		t.Fatalf("metrics differ:\n%+v\n%+v", m1, m2)
	}
}

// TestReplayHonoursRanges: a trace means the same thing through every
// entry point. Its Length > 0 jobs are positioned reads whether the trace
// is replayed through the facade (System.ReplayReads) or posted to the
// HTTP control plane (POST /v1/ops?format=trace) — both hand each job to
// workload.ScheduleRead — so the ranged counters agree, on one shard and
// across a federation.
func TestReplayHonoursRanges(t *testing.T) {
	trace := &erms.Trace{
		Seed:     15,
		Duration: 10 * time.Minute,
		Files: []workload.FileSpec{
			{Path: "/ranges/a", Size: 256 * erms.MB},
			{Path: "/ranges/b", Size: 256 * erms.MB},
			{Path: "/ranges/late", Size: 128 * erms.MB, CreateAt: 2 * time.Minute},
		},
	}
	for i := 0; i < 12; i++ {
		trace.Jobs = append(trace.Jobs,
			workload.JobSpec{Submit: time.Duration(i+1) * 20 * time.Second, File: "/ranges/a", Client: i,
				Offset: float64(i%4) * 48 * erms.MB, Length: 32 * erms.MB}, // every third one straddles two blocks
			workload.JobSpec{Submit: time.Duration(i+1) * 25 * time.Second, File: "/ranges/b", Client: 40 + i})
	}
	trace.Jobs = append(trace.Jobs, workload.JobSpec{Submit: 5 * time.Minute, File: "/ranges/late", Client: 3, Length: 64 * erms.MB})
	horizon := trace.Horizon(10 * time.Minute)

	for _, shards := range []int{1, 2} {
		facade := erms.NewSystem(erms.Options{Shards: shards})
		facade.Preload(trace)
		facade.ReplayReads(trace, nil)
		facade.RunUntil(horizon)
		facade.Stop()

		wall := sim.NewSimClock(sim.NewEngine())
		served := erms.NewSystem(erms.Options{Shards: shards, Clock: wall})
		var body bytes.Buffer
		if err := trace.WriteJSON(&body); err != nil {
			t.Fatal(err)
		}
		srv := server.New(served)
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ops?format=trace", &body))
		if w.Code != http.StatusOK {
			t.Fatalf("shards=%d: trace replay: %d %s", shards, w.Code, w.Body.String())
		}
		wall.Advance(horizon)
		served.CatchUp()
		served.Stop()

		fm, sm := facade.Metrics(), served.Metrics()
		if fm.RangedReads != 13 || fm.PartialBlockReads == 0 {
			t.Errorf("shards=%d: facade replay issued %d ranged reads (%d partial block reads), want 13 and > 0",
				shards, fm.RangedReads, fm.PartialBlockReads)
		}
		if fm.RangedReads != sm.RangedReads || fm.PartialBlockReads != sm.PartialBlockReads ||
			fm.RangedBytesRead != sm.RangedBytesRead || fm.ReadsCompleted != sm.ReadsCompleted || fm.ReadsFailed != sm.ReadsFailed {
			t.Errorf("shards=%d: facade and server replays disagree\nfacade %+v\nserver %+v", shards, fm, sm)
		}
	}
}
