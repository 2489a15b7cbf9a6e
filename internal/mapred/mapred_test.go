package mapred

import (
	"testing"
	"time"

	"erms/internal/hdfs"
	"erms/internal/sim"
	"erms/internal/topology"
)

const mb = float64(topology.MB)

func newRuntime(t *testing.T, sched Scheduler) (*sim.Engine, *hdfs.Cluster, *Cluster) {
	t.Helper()
	e := sim.NewEngine()
	topo := topology.New(topology.Config{})
	h := hdfs.New(e, hdfs.Config{Topology: topo})
	return e, h, New(h, sched)
}

func TestSubmitUnknownFile(t *testing.T) {
	_, _, mr := newRuntime(t, NewFIFO())
	if err := mr.Submit(&Job{Name: "j", File: "/nope"}); err == nil {
		t.Fatal("unknown input accepted")
	}
}

func TestSingleJobRunsAllTasks(t *testing.T) {
	e, h, mr := newRuntime(t, NewFIFO())
	h.CreateFile("/in", 256*mb, 3, 0) // 4 blocks
	j := &Job{Name: "wordcount", File: "/in"}
	var finished *Job
	mr.OnJobDone(func(x *Job) { finished = x })
	if err := mr.Submit(j); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if finished == nil || !j.Done || j.Err != nil {
		t.Fatalf("job did not finish cleanly: %+v", j)
	}
	if j.Tasks() != 4 || j.NodeLocalTasks+j.RackLocalTasks+j.RemoteTasks != 4 {
		t.Fatalf("task accounting: %+v", j)
	}
	if j.BytesRead != 256*mb {
		t.Fatalf("bytes read = %v MB", j.BytesRead/mb)
	}
	if j.Duration() <= 0 || j.ReadThroughputMBps() <= 0 {
		t.Fatalf("metrics: dur=%v tp=%v", j.Duration(), j.ReadThroughputMBps())
	}
}

func TestComputeCostExtendsJob(t *testing.T) {
	run := func(compute time.Duration) time.Duration {
		e, h, mr := newRuntime(t, NewFIFO())
		h.CreateFile("/in", 128*mb, 3, 0)
		j := &Job{Name: "j", File: "/in", ComputePerMB: compute}
		mr.Submit(j)
		e.Run()
		return j.Duration()
	}
	fast := run(0)
	slow := run(10 * time.Millisecond) // 640ms extra per 64MB block
	if slow <= fast {
		t.Fatalf("compute cost had no effect: %v vs %v", fast, slow)
	}
}

func TestFIFOOrdersJobs(t *testing.T) {
	e, h, mr := newRuntime(t, NewFIFO())
	// Big cluster-wide file so job1 occupies all slots for a while.
	h.CreateFile("/big", 4*1024*mb, 3, 0)
	h.CreateFile("/small", 64*mb, 3, 0)
	j1 := &Job{Name: "first", File: "/big"}
	j2 := &Job{Name: "second", File: "/small"}
	mr.Submit(j1)
	mr.Submit(j2)
	e.Run()
	if !j1.Done || !j2.Done {
		t.Fatal("jobs incomplete")
	}
	// FIFO: the small job's task had to wait for free slots; under Fair it
	// would start almost immediately. With FIFO its start is delayed until
	// a slot frees from job1's first wave.
	if j2.StartTime == j2.SubmitTime {
		t.Fatal("FIFO let the second job start instantly despite saturated slots")
	}
}

func TestFairSharesSlots(t *testing.T) {
	e, h, mr := newRuntime(t, NewFair())
	h.CreateFile("/a", 2*1024*mb, 3, 0)
	h.CreateFile("/b", 2*1024*mb, 3, 0)
	ja := &Job{Name: "a", File: "/a"}
	jb := &Job{Name: "b", File: "/b"}
	mr.Submit(ja)
	mr.Submit(jb)
	// Shortly after start, both jobs should be running tasks concurrently.
	e.RunUntil(2 * time.Second)
	if ja.running == 0 || jb.running == 0 {
		t.Fatalf("fair scheduler not sharing: a=%d b=%d", ja.running, jb.running)
	}
	e.Run()
	if !ja.Done || !jb.Done {
		t.Fatal("jobs incomplete")
	}
}

func TestFairDelaySchedulingImprovesLocality(t *testing.T) {
	// Many single-block files on scattered nodes, two competing jobs per
	// scheduler run; Fair-with-delay should get at least as much locality
	// as Fair-without-delay (MaxSkips=0).
	run := func(skips int) float64 {
		e := sim.NewEngine()
		topo := topology.New(topology.Config{})
		h := hdfs.New(e, hdfs.Config{Topology: topo})
		mr := New(h, &Fair{MaxSkips: skips})
		for n := range mr.free { // one slot per node: slots are scarce
			mr.free[n] = 1
		}
		var jobs []*Job
		for i := 0; i < 6; i++ {
			path := "/in" + string(rune('a'+i))
			h.CreateFile(path, 192*mb, 3, topology.NodeID(i*3%18))
			j := &Job{Name: path, File: path, ComputePerMB: 5 * time.Millisecond}
			jobs = append(jobs, j)
			mr.Submit(j)
		}
		e.Run()
		local, total := 0, 0
		for _, j := range jobs {
			if !j.Done {
				t.Fatal("job incomplete")
			}
			local += j.NodeLocalTasks
			total += j.Tasks()
		}
		return float64(local) / float64(total)
	}
	noDelay := run(0)
	withDelay := run(6)
	if withDelay < noDelay {
		t.Fatalf("delay scheduling hurt locality: %.2f -> %.2f", noDelay, withDelay)
	}
}

func TestHigherReplicationImprovesLocality(t *testing.T) {
	run := func(repl int) float64 {
		e := sim.NewEngine()
		topo := topology.New(topology.Config{})
		h := hdfs.New(e, hdfs.Config{Topology: topo})
		mr := New(h, NewFIFO())
		h.CreateFile("/in", 1024*mb, repl, 0)
		j := &Job{Name: "j", File: "/in"}
		mr.Submit(j)
		e.Run()
		return j.LocalityFraction()
	}
	lo := run(1)
	hi := run(9)
	if hi <= lo {
		t.Fatalf("locality did not improve with replication: r1=%.2f r9=%.2f", lo, hi)
	}
}

func TestSchedulerNames(t *testing.T) {
	if NewFIFO().Name() != "FIFO" || NewFair().Name() != "Fair" {
		t.Fatal("names")
	}
}

func TestWeightsBiasFairShares(t *testing.T) {
	// MaxSkips=0 isolates the weighted-share policy from delay scheduling
	// (which deliberately lets a low-weight job with local data jump ahead).
	e, h, mr := newRuntime(t, &Fair{MaxSkips: 0})
	h.CreateFile("/a", 8192*mb, 3, 0) // 128 tasks each, so neither drains
	h.CreateFile("/b", 8192*mb, 3, 0)
	heavy := &Job{Name: "heavy", File: "/a", Weight: 4, ComputePerMB: 20 * time.Millisecond}
	light := &Job{Name: "light", File: "/b", Weight: 1, ComputePerMB: 20 * time.Millisecond}
	mr.Submit(heavy)
	mr.Submit(light)
	e.RunUntil(1 * time.Second) // before any task completes
	if heavy.running <= light.running {
		t.Fatalf("weights ignored: heavy=%d light=%d", heavy.running, light.running)
	}
	e.Run()
}

func TestRunningTasksGauge(t *testing.T) {
	e, h, mr := newRuntime(t, NewFIFO())
	h.CreateFile("/in", 512*mb, 3, 0)
	mr.Submit(&Job{Name: "j", File: "/in"})
	if mr.RunningTasks() == 0 {
		t.Fatal("no tasks launched at submit")
	}
	e.Run()
	if mr.RunningTasks() != 0 {
		t.Fatal("tasks still running after drain")
	}
	if len(mr.Jobs()) != 1 || mr.Scheduler().Name() != "FIFO" || mr.HDFS() == nil {
		t.Fatal("accessors")
	}
}

func TestSpeculativeExecutionRescuesStraggler(t *testing.T) {
	run := func(speculative bool) (*Job, time.Duration) {
		e, h, mr := newRuntime(t, NewFIFO())
		// Single-replica blocks all on node 0 so every task reads from it;
		// then throttle node 0's disk hard partway through, creating
		// stragglers whose reads crawl.
		h.CreateFile("/in", 512*mb, 3, -1)
		// Throttle the node serving the LAST block's primary replica after
		// the job is underway.
		j := &Job{Name: "j", File: "/in", Speculative: speculative}
		if err := mr.Submit(j); err != nil {
			t.Fatal(err)
		}
		// After most tasks finish, load one serving node's disk so any task
		// still reading from it crawls.
		e.Schedule(200*time.Millisecond, func() {
			h.StartDiskLoad(0, 8, 10*mb)
			h.StartDiskLoad(1, 8, 10*mb)
		})
		e.RunUntil(10 * time.Minute)
		if !j.Done {
			t.Fatalf("job incomplete (speculative=%v)", speculative)
		}
		return j, j.Duration()
	}
	_, plain := run(false)
	spec, specDur := run(true)
	if spec.SpeculativeLaunched == 0 {
		t.Fatal("no speculative attempts launched")
	}
	if specDur > plain {
		t.Fatalf("speculation made the job slower: %v vs %v", specDur, plain)
	}
	if spec.SpeculativeWon == 0 {
		t.Log("backups launched but primaries won; acceptable, still bounded")
	}
}

func TestSpeculationOffByDefault(t *testing.T) {
	e, h, mr := newRuntime(t, NewFIFO())
	h.CreateFile("/in", 256*mb, 3, 0)
	j := &Job{Name: "j", File: "/in"}
	mr.Submit(j)
	e.Run()
	if j.SpeculativeLaunched != 0 {
		t.Fatal("speculation ran without opt-in")
	}
}
