package main

import (
	"fmt"
	"math/rand"
	"time"

	"erms"
	"erms/internal/invariant"
	"erms/internal/sim"
)

// readTally is the done-callback state of a read workload: every
// scheduled read must come back, without an error.
type readTally struct {
	done, failed int
	sumMBps      float64
	latMS        []float64 // virtual-time duration of each completed read
	firstErr     string
}

func (t *readTally) observe(r *erms.ReadResult) {
	t.done++
	if r.Err != nil {
		t.failed++
		if t.firstErr == "" {
			t.firstErr = r.Path + ": " + r.Err.Error()
		}
		return
	}
	t.sumMBps += r.ThroughputMBps()
	t.latMS = append(t.latMS, float64(r.Duration())/1e6)
}

// finish records the read outcome on r.
func (t *readTally) finish(r *rep, scheduled int) {
	r.ops += scheduled
	r.failed += t.failed + (scheduled - t.done)
	r.lat = t.latMS
	if ok := t.done - t.failed; ok > 0 {
		r.simMBps = t.sumMBps / float64(ok)
	}
	r.checkf("reads-complete", t.done == scheduled && t.failed == 0,
		"%d scheduled, %d completed, %d failed (%s)", scheduled, t.done, t.failed, t.firstErr)
}

// checkInvariants runs the repository's own state oracles on a
// single-namenode system.
func checkInvariants(r *rep, sys *erms.System) {
	r.check("invariants", invariant.Check(invariant.Target{Cluster: sys.HDFS(), Manager: sys.Manager()})...)
}

// hotSmallSize is one repetition of hot-small. The file count is the
// issue's; the read count and span are cut to what a repetition of a few
// host seconds holds, keeping the issue's read rate per virtual second.
type hotSmallSize struct {
	nodes, racks, files, reads int
	span                       time.Duration
}

func hotSmallSizeFor(quick bool) hotSmallSize {
	if quick {
		return hotSmallSize{nodes: 18, racks: 3, files: 2000, reads: 4000, span: 2 * time.Minute}
	}
	return hotSmallSize{nodes: 102, racks: 17, files: 102000, reads: 60000, span: 5 * time.Minute}
}

// hotSmall: many small files, Zipf reads; flows are short, so the control
// loop and the hdfs read path do the work.
func hotSmall(p params, tr *tracer) *rep {
	sz := hotSmallSizeFor(p.quick)
	r := newRep(p.traced)
	opts := erms.Options{Racks: sz.racks, Nodes: sz.nodes, JudgePeriod: time.Minute}

	heap0 := liveHeapMB()
	t0 := time.Now()
	sys := erms.NewSystem(opts)
	rng := rand.New(rand.NewSource(p.seed))
	paths := make([]string, sz.files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/hot/f%06d", i)
		// 0.75–1.25 MB in whole KB, 1 MB on average: equal sizes would
		// quantize every read latency to the same few values, and whole KB
		// keep the storage oracle's float sums exact.
		if err := sys.CreateFileOn(paths[i], float64(768+rng.Intn(513))*1024, 0, i%sz.nodes); err != nil {
			panic(fmt.Sprintf("hot-small set-up: %v", err))
		}
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(sz.files-1))
	rank := rng.Perm(sz.files) // which file holds which popularity rank
	tally := &readTally{}
	items := make([]sim.Timed, sz.reads)
	for i := range items {
		op, path, client := int64(i), paths[rank[zipf.Uint64()]], rng.Intn(sz.nodes)
		items[i] = sim.Timed{
			At: time.Duration(float64(sz.span) * float64(i) / float64(sz.reads)),
			Fn: func() {
				sp := tr.begin("hdfs.Read", op, -1)
				sys.Read(client, path, tally.observe)
				tr.end(sp)
			},
		}
	}
	sys.Engine().AtBatch(items)
	r.setupS = time.Since(t0).Seconds()

	d := &simDriver{sys: sys, tr: tr, r: r}
	stopCPU := cpuProfiled(r)
	m := startMeasure()
	d.advance(sz.span)
	d.drain()
	m.stop(r)
	stopCPU()

	r.heapMB = liveHeapMB(sys) - heap0
	r.digest, r.fired = sys.StateDigest(), sys.Engine().Fired()
	tally.finish(r, sz.reads)
	checkInvariants(r, sys)
	ledgerCounts(r, sys)
	d.finishFlows()
	r.exact["core.judge_passes"] = float64(sz.span / opts.JudgePeriod)
	judgeProbe(r, tr, sys, p)
	checkColdRestore(r, tr, sys, erms.NewSystem(opts))
	return r
}

// swimLargeSize is one repetition of swim-large.
type swimLargeSize struct {
	nodes, racks, files int
	span, arrival       time.Duration
}

func swimLargeSizeFor(quick bool) swimLargeSize {
	if quick {
		return swimLargeSize{nodes: 18, racks: 3, files: 30, span: 30 * time.Minute, arrival: 10 * time.Second}
	}
	return swimLargeSize{nodes: 54, racks: 9, files: 1000, span: 8 * time.Hour, arrival: 500 * time.Millisecond}
}

// swimLarge: a SWIM-style trace of large files; long multi-block flows
// and the replication jobs they trigger keep many flows alive, so the
// network model does the work.
func swimLarge(p params, tr *tracer) *rep {
	sz := swimLargeSizeFor(p.quick)
	r := newRep(p.traced)
	opts := erms.Options{Racks: sz.racks, Nodes: sz.nodes, Thresholds: erms.Thresholds{ColdAge: 100 * time.Hour}}
	run := func(opts erms.Options, r *rep, tr *tracer) (*erms.System, *readTally, int) {
		t0 := time.Now()
		trace := erms.SynthesizeWorkload(erms.WorkloadConfig{
			Seed: p.seed, Duration: sz.span, NumFiles: sz.files, ZipfSkew: 0.8,
			MeanInterarrival: sz.arrival, MinFileSize: 256 * erms.MB, MaxFileSize: 512 * erms.MB, Clients: sz.nodes,
		})
		sys := erms.NewSystem(opts)
		tally := &readTally{}
		sys.Preload(trace)
		sys.ReplayReads(trace, tally.observe)
		r.setupS = time.Since(t0).Seconds()

		d := &simDriver{sys: sys, tr: tr, r: r}
		stopCPU := cpuProfiled(r)
		m := startMeasure()
		d.advance(trace.Horizon(time.Hour))
		d.drain() // replication jobs in flight at the horizon finish: the checks need a quiescent system
		m.stop(r)
		stopCPU()
		d.finishFlows()
		return sys, tally, len(trace.Jobs)
	}
	heap0 := liveHeapMB()
	sys, tally, reads := run(opts, r, tr)

	r.heapMB = liveHeapMB(sys) - heap0
	r.digest, r.fired = sys.StateDigest(), sys.Engine().Fired()
	tally.finish(r, reads)
	checkInvariants(r, sys)
	ledgerCounts(r, sys)
	window := erms.DefaultThresholds().Window
	r.exact["core.judge_passes"] = float64((sz.span + time.Hour) / window)
	judgeProbe(r, tr, sys, p)
	checkColdRestore(r, tr, sys, erms.NewSystem(opts))

	if p.traced && p.deepChecks {
		// The same trace on vanilla HDFS, once a run, so the control loop's
		// host-time overhead factor is on record.
		vopts := opts
		vopts.DisableERMS = true
		vr := newRep(false)
		_, vt, _ := run(vopts, vr, nil)
		r.checkf("vanilla-reads-complete", vt.done == reads && vt.failed == 0,
			"%d scheduled, %d completed, %d failed (%s)", reads, vt.done, vt.failed, vt.firstErr)
		r.host["erms.vanilla_wall_s"] = vr.timedS
		r.host["erms.overhead_x"] = p.baseSecPerOp * float64(reads) / vr.timedS
	}
	return r
}
