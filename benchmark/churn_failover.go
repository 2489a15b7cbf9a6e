package main

import (
	"fmt"
	"math/rand"
	"time"

	"erms"
	"erms/internal/invariant"
)

// churnSize is one repetition of churn-failover. The issue's ratios hold
// (2 mutations a preloaded file, 10 virtual ms an op, 16 failovers); the
// counts are cut to what a repetition of a few host seconds holds.
type churnSize struct {
	nodes, racks, preload, batches, batchOps, failovers int
}

func churnSizeFor(quick bool) churnSize {
	if quick {
		return churnSize{nodes: 18, racks: 3, preload: 1500, batches: 60, batchOps: 50, failovers: 4}
	}
	return churnSize{nodes: 102, racks: 17, preload: 50000, batches: 1000, batchOps: 100, failovers: 16}
}

// namespace is the harness's shadow of what must exist.
type namespace struct {
	live    []string
	index   map[string]int  // path → position in live
	present map[string]bool // the federation oracle's model namespace
	deleted []string        // every path removed or renamed away
	nextID  int
}

func (ns *namespace) add(path string) {
	ns.index[path] = len(ns.live)
	ns.live = append(ns.live, path)
	ns.present[path] = true
}

func (ns *namespace) remove(path string) {
	i, last := ns.index[path], len(ns.live)-1
	ns.live[i] = ns.live[last]
	ns.index[ns.live[i]] = i
	ns.live = ns.live[:last]
	delete(ns.index, path)
	delete(ns.present, path)
	ns.deleted = append(ns.deleted, path)
}

func (ns *namespace) fresh(prefix string) string {
	ns.nextID++
	return fmt.Sprintf("/churn/%s%07d", prefix, ns.nextID)
}

// churnFailover: a metadata workload on four journaled shards. It uses
// hdfs the other way round from the read workloads — writes beside a
// trickle of reads, no long flows — so a read-path gain that taxes
// mutations, journaling, cross-shard moves or the checkpoint codec shows
// here, and the judge still sweeps the whole namespace every period.
func churnFailover(p params, tr *tracer) *rep {
	sz := churnSizeFor(p.quick)
	r := newRep(p.traced)
	opts := erms.Options{Racks: sz.racks, Nodes: sz.nodes, Shards: 4, EnableJournal: true, JudgePeriod: time.Minute}
	rng := rand.New(rand.NewSource(p.seed))
	// 4–12 MB in whole KB, 8 MB on average: the trickle of reads then sees
	// a spread of latencies rather than one constant.
	fileSize := func() float64 { return float64(4096+rng.Intn(8193)) * 1024 }

	heap0 := liveHeapMB()
	t0 := time.Now()
	sys := erms.NewSystem(opts)
	ns := &namespace{index: map[string]int{}, present: map[string]bool{}}
	for i := 0; i < sz.preload; i++ {
		path := ns.fresh("f")
		if err := sys.CreateFileOn(path, fileSize(), 0, rng.Intn(sz.nodes)); err != nil {
			panic(fmt.Sprintf("churn-failover set-up: %v", err))
		}
		ns.add(path)
	}
	if err := sys.SnapshotShards(); err != nil {
		panic(fmt.Sprintf("churn-failover set-up: %v", err))
	}
	snapSeq := journalSeqs(sys)
	r.setupS = time.Since(t0).Seconds()

	var (
		opErrs    []string
		tally     readTally
		reads     int
		xshard    int
		tails     []float64
		router    = sys.Router()
		failEvery = sz.batches / sz.failovers
	)
	fail := func(op string, err error) {
		if err != nil {
			r.failed++
			opErrs = append(opErrs, op+": "+err.Error())
		}
	}
	d := &simDriver{sys: sys, tr: tr, r: r}
	stopCPU := cpuProfiled(r)
	m := startMeasure()
	for b := 0; b < sz.batches; b++ {
		for i := 0; i < sz.batchOps; i++ {
			op := int64(b*sz.batchOps + i)
			r.ops++
			switch x := rng.Float64(); {
			case x < 0.4 || len(ns.live) == 0:
				path := ns.fresh("f")
				sp := tr.begin("hdfs.Create", op, -1)
				err := sys.CreateFileOn(path, fileSize(), 0, rng.Intn(sz.nodes))
				tr.end(sp)
				fail("create "+path, err)
				if err == nil {
					ns.add(path)
				}
			case x < 0.7:
				path := ns.live[rng.Intn(len(ns.live))]
				sp := tr.begin("hdfs.Delete", op, -1)
				err := sys.Delete(path)
				tr.end(sp)
				fail("delete "+path, err)
				if err == nil {
					ns.remove(path)
				}
			default:
				src, dst := ns.live[rng.Intn(len(ns.live))], ns.fresh("r")
				name := "hdfs.Rename"
				if router.Shard(src) != router.Shard(dst) {
					name = "federation.Rename"
					xshard++
				}
				sp := tr.begin(name, op, -1)
				err := sys.Rename(src, dst)
				tr.end(sp)
				fail("rename "+src, err)
				if err == nil {
					ns.remove(src)
					ns.add(dst)
				}
			}
		}
		// One read of a live file a batch: it completes inside the RunFor
		// below, so no later mutation can pull the file from under it.
		reads++
		sp := tr.begin("hdfs.Read", int64((b+1)*sz.batchOps-1), -1)
		sys.Read(rng.Intn(sz.nodes), ns.live[rng.Intn(len(ns.live))], tally.observe)
		tr.end(sp)
		d.advance(sys.Now() + time.Duration(sz.batchOps)*10*time.Millisecond)

		if (b+1)%failEvery == 0 {
			k := ((b+1)/failEvery - 1) % sys.Shards()
			tails = append(tails, float64(sys.Shard(k).Journal().NextSeq()-snapSeq[k]))
			sp := tr.begin("erms.FailoverShard", int64(k), -1)
			err := sys.FailoverShard(k)
			tr.end(sp)
			fail("failover", err)
			sp = tr.begin("erms.SnapshotShards", -1, -1)
			err = sys.SnapshotShards()
			tr.end(sp)
			fail("snapshot", err)
			snapSeq = journalSeqs(sys)

			m.exclude(func() {
				if p.deepChecks {
					checkRestore(r, sys, opts)
				}
				checkNamespace(r, sys, ns)
			})
		}
	}
	m.stop(r)
	stopCPU()

	r.heapMB = liveHeapMB(sys) - heap0
	r.digest, r.fired = sys.StateDigest(), sys.Engine().Fired()
	r.check("ops-succeed", opErrs...)
	tally.finish(r, reads)
	ledgerCounts(r, sys)
	d.finishFlows()
	r.exact["federation.xshard_renames"] = float64(xshard)
	r.exact["auditlog.tail_entries_per_failover"] = mean(tails)
	virtual := time.Duration(sz.batches*sz.batchOps) * 10 * time.Millisecond
	r.exact["core.judge_passes"] = float64(virtual/opts.JudgePeriod) * float64(sys.Shards())
	judgeProbe(r, tr, sys, p)
	// The final Checkpoint → cold Restore on a fresh system.
	checkColdRestore(r, tr, sys, erms.NewSystem(opts))
	checkNamespace(r, sys, ns)
	return r
}

func journalSeqs(sys *erms.System) []uint64 {
	seqs := make([]uint64, sys.Shards())
	for i := range seqs {
		seqs[i] = sys.Shard(i).Journal().NextSeq()
	}
	return seqs
}

// checkRestore runs after every failover of a run's first repetition (the
// others replay the same inputs): a cold restore of a checkpoint must
// digest like the live system.
func checkRestore(r *rep, sys *erms.System, opts erms.Options) {
	probe := newRep(false)
	checkColdRestore(probe, nil, sys, erms.NewSystem(opts))
	for _, c := range probe.checks {
		c.name = "failover-" + c.name
		r.checks = append(r.checks, c)
	}
}

// checkNamespace runs after every failover and at the end: the shards
// must partition the namespace exactly as the harness's model says, and
// the model's live and deleted paths must read back as present and absent.
func checkNamespace(r *rep, sys *erms.System, ns *namespace) {
	shards := make([]invariant.Lister, sys.Shards())
	for i := range shards {
		shards[i] = sys.Shard(i).HDFS()
	}
	r.check("federation-ownership", invariant.CheckFederation(invariant.FederationTarget{
		Shards: shards, Owner: sys.Router().Shard, Expected: ns.present,
	})...)
	var errs []string
	for _, p := range ns.live {
		if sys.Replication(p) < 1 {
			errs = append(errs, "live path has no replicas: "+p)
		}
	}
	for _, p := range ns.deleted {
		if !ns.present[p] && sys.Replication(p) != 0 {
			errs = append(errs, "deleted path still has replicas: "+p)
		}
	}
	r.check("shadow-namespace", errs...)
}
