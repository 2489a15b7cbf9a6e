// Command ermsctl runs an ERMS deployment against a synthetic workload and
// reports what the system did: judge decisions, Condor user log, replica
// state, storage and energy accounting.
//
// Usage:
//
//	ermsctl -duration 2h -seed 3          # replay a trace, print the report
//	ermsctl -demo                         # scripted hot/cold lifecycle demo
//	ermsctl -duration 1h -log             # include the Condor user log
//	ermsctl trace -o out.json             # export a Chrome trace (Perfetto)
//	ermsctl metrics                       # Prometheus-style metrics snapshot
//	ermsctl status                        # namenode health: safe mode, epoch, repair queues
//	ermsctl status -kill 10               # same, mid-incident (mass failure trips the guard)
//	ermsctl sweep -seeds 3 -taum 12,8,4   # threshold grid across all cores
//	ermsctl checkpoint -o namenode.ckpt   # run a workload, checkpoint the namenode
//	ermsctl restore -i namenode.ckpt      # commission a fresh namenode from it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"erms"
	"erms/internal/hdfs"
	"erms/internal/invariant"
	"erms/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ermsctl: ")
	if len(os.Args) > 1 && (os.Args[1] == "trace" || os.Args[1] == "metrics") {
		runToolCommand(os.Args[1], os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "status" {
		runStatusCommand(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		runSweep(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && (os.Args[1] == "checkpoint" || os.Args[1] == "restore") {
		runCheckpointCommand(os.Args[1], os.Args[2:])
		return
	}
	var (
		seed      = flag.Int64("seed", 1, "workload seed")
		duration  = flag.Duration("duration", time.Hour, "trace length")
		files     = flag.Int("files", 20, "file catalog size")
		demo      = flag.Bool("demo", false, "run the scripted hot/cooled/cold lifecycle demo instead of a trace")
		showLog   = flag.Bool("log", false, "print the Condor user log")
		tauM      = flag.Float64("taum", 8, "hot threshold τ_M")
		traceFile = flag.String("trace", "", "replay a trace file (.json or .csv from swimgen) instead of synthesizing")
		asJSON    = flag.Bool("json", false, "emit the report as JSON instead of text")
	)
	flag.Parse()

	th := erms.DefaultThresholds()
	th.TauM = *tauM
	sys := erms.NewSystem(erms.Options{Thresholds: th})

	if *demo {
		runDemo(sys)
	} else {
		var trace *erms.Trace
		if *traceFile == "" {
			trace = synthetic(*seed, *duration, *files)
		} else {
			var err error
			if trace, err = workload.ReadFile(*traceFile); err != nil {
				log.Fatal(err)
			}
		}
		sys.RunUntil(startTrace(sys, trace))
	}
	if *asJSON {
		reportJSON(sys)
	} else {
		report(sys, *showLog)
	}
}

// runToolCommand handles the observability subcommands: both replay the
// same synthetic workload, then `trace` exports the recorded span tree
// as Chrome trace_event JSON (load in Perfetto or chrome://tracing) and
// `metrics` prints the registry's Prometheus-style snapshot.
func runToolCommand(cmd string, args []string) {
	fs := flag.NewFlagSet("ermsctl "+cmd, flag.ExitOnError)
	var (
		seed     = fs.Int64("seed", 1, "workload seed")
		duration = fs.Duration("duration", 30*time.Minute, "trace length")
		files    = fs.Int("files", 20, "file catalog size")
		out      = fs.String("o", "", "output file (default stdout)")
	)
	fs.Parse(args)

	sys := erms.NewSystem(erms.Options{EnableTrace: cmd == "trace"})
	sys.RunUntil(startTrace(sys, synthetic(*seed, *duration, *files)))

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	switch cmd {
	case "trace":
		if err := sys.Tracer().WriteChromeTrace(w); err != nil {
			log.Fatal(err)
		}
		log.Printf("%d spans exported; open the file in https://ui.perfetto.dev or chrome://tracing", sys.Tracer().Len())
	case "metrics":
		if err := sys.Registry().WritePrometheus(w); err != nil {
			log.Fatal(err)
		}
	}
}

// runStatusCommand prints the namenode's degradation surface after a
// workload run: safe-mode state, the writer/journal epochs and fencing,
// per-tier repair queue depths, and the repair pipeline's occupancy
// against its caps. `-kill N` fails N datanodes shortly before the
// horizon so the report catches the cluster mid-incident (killing enough
// nodes trips the safe-mode guard). With `-shards N`, N >= 2, the report
// ends with a per-shard table (epoch, namespace size, safe mode, queue
// depths).
func runStatusCommand(args []string) {
	fs := flag.NewFlagSet("ermsctl status", flag.ExitOnError)
	var (
		seed     = fs.Int64("seed", 1, "workload seed")
		duration = fs.Duration("duration", 30*time.Minute, "trace length")
		files    = fs.Int("files", 20, "file catalog size")
		kill     = fs.Int("kill", 0, "datanodes to fail 10s before the horizon")
		shards   = fs.Int("shards", 0, "namenode shards the namespace is federated across (0 and 1 both mean one namenode)")
	)
	fs.Parse(args)

	sys := erms.NewSystem(erms.Options{
		EnableJournal: true,
		Shards:        *shards,
		SafeMode:      erms.SafeModeConfig{Enabled: true},
	})
	horizon := startTrace(sys, synthetic(*seed, *duration, *files))
	if *kill > 0 {
		sys.Engine().At(horizon-10*time.Second, func() {
			killed := 0
			for _, d := range sys.HDFS().Datanodes() {
				if killed == *kill {
					break
				}
				if d.State == hdfs.StateActive {
					sys.KillNode(int(d.ID))
					killed++
				}
			}
		})
	}
	sys.RunUntil(horizon)
	fmt.Print(statusReport(sys.Status()))
}

// runCheckpointCommand handles the durability subcommands. `checkpoint`
// runs the synthetic workload on a journaled deployment and writes the
// namenode's versioned checkpoint file; `restore` commissions a fresh
// system from such a file and reports what came back — file count, block
// count, the virtual clock (restore fast-forwards to the capture time),
// the state digest, and a full consistency sweep.
func runCheckpointCommand(cmd string, args []string) {
	fs := flag.NewFlagSet("ermsctl "+cmd, flag.ExitOnError)
	var (
		seed     = fs.Int64("seed", 1, "workload seed (checkpoint only)")
		duration = fs.Duration("duration", 30*time.Minute, "trace length (checkpoint only)")
		files    = fs.Int("files", 20, "file catalog size (checkpoint only)")
		out      = fs.String("o", "namenode.ckpt", "checkpoint file to write")
		in       = fs.String("i", "namenode.ckpt", "checkpoint file to read")
	)
	fs.Parse(args)

	switch cmd {
	case "checkpoint":
		sys := erms.NewSystem(erms.Options{EnableJournal: true})
		sys.RunUntil(startTrace(sys, synthetic(*seed, *duration, *files)))
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.Checkpoint(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		c := sys.HDFS()
		log.Printf("wrote %s: %d files, %d blocks, digest %#x, journal at seq %d",
			*out, c.Files(), c.LiveBlocks(), sys.StateDigest(), sys.Journal().NextSeq())
	case "restore":
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		sys := erms.NewSystem(erms.Options{EnableJournal: true})
		if err := sys.Restore(f); err != nil {
			log.Fatal(err)
		}
		c := sys.HDFS()
		// Lost blocks are a finding about the data, not about the restore.
		errs := invariant.Check(invariant.Target{Cluster: c, AllowDataLoss: true})
		log.Printf("restored %s: %d files, %d blocks, virtual time %s, digest %#x, consistent=%v",
			*in, c.Files(), c.LiveBlocks(), sys.Engine().Now(), sys.StateDigest(), len(errs) == 0)
		if len(errs) > 0 {
			for _, e := range errs {
				log.Printf("  inconsistency: %v", e)
			}
			os.Exit(1)
		}
	}
}

// jsonReport is the machine-readable run summary.
type jsonReport struct {
	Decisions []string          `json:"decisions"`
	Stats     any               `json:"stats"`
	Metrics   erms.HDFSMetrics  `json:"metrics"`
	StorageGB float64           `json:"storageGB"`
	Energy    erms.EnergyReport `json:"energy"`
	Datanodes []jsonDatanode    `json:"datanodes"`
	CondorLog []string          `json:"condorLog"`
}

type jsonDatanode struct {
	Name   string  `json:"name"`
	State  string  `json:"state"`
	Blocks int     `json:"blocks"`
	UsedGB float64 `json:"usedGB"`
	Pool   bool    `json:"standbyPool"`
}

func reportJSON(sys *erms.System) {
	m := sys.Manager()
	rep := jsonReport{
		Stats:     m.Stats(),
		Metrics:   sys.Metrics(),
		StorageGB: sys.StorageUsed() / erms.GB,
		Energy:    sys.Energy(),
	}
	for _, d := range sys.Decisions() {
		rep.Decisions = append(rep.Decisions, d.String())
	}
	for _, d := range sys.HDFS().Datanodes() {
		rep.Datanodes = append(rep.Datanodes, jsonDatanode{
			Name:   d.Name,
			State:  d.State.String(),
			Blocks: d.NumBlocks(),
			UsedGB: d.Used / erms.GB,
			Pool:   m.InStandbyPool(d.ID),
		})
	}
	for _, ev := range m.Scheduler().Log() {
		rep.CondorLog = append(rep.CondorLog, ev.String())
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
}

// synthetic is the workload every subcommand runs unless handed a trace
// file: a SWIM-shaped trace with one job every 6 s on average.
func synthetic(seed int64, duration time.Duration, files int) *erms.Trace {
	return erms.SynthesizeWorkload(erms.WorkloadConfig{
		Seed:             seed,
		Duration:         duration,
		NumFiles:         files,
		MeanInterarrival: 6 * time.Second,
	})
}

// startTrace loads a trace into sys — files preloaded, jobs scheduled as
// direct reads — and returns the horizon to run to: the trace's end plus
// half an hour for stragglers and the judge's cool-down.
func startTrace(sys *erms.System, tr *erms.Trace) time.Duration {
	sys.Preload(tr)
	sys.ReplayReads(tr, nil)
	return tr.Horizon(30 * time.Minute)
}

func runDemo(sys *erms.System) {
	fmt.Println("== demo: one file through the hot → cooled → cold lifecycle ==")
	must(sys.CreateFile("/demo/dataset", 640*erms.MB))
	// Phase 1: sustained hammering so the judge marks the file hot and the
	// extra replicas are observable while the load is still on.
	for wave := 0; wave < 10; wave++ {
		sys.Engine().Schedule(time.Duration(wave)*time.Minute, func() {
			for i := 0; i < 12; i++ {
				sys.Read(i%10, "/demo/dataset", nil)
			}
		})
	}
	sys.RunFor(8 * time.Minute)
	fmt.Printf("during hot phase:   replication = %d\n", sys.Replication("/demo/dataset"))
	sys.RunFor(4 * time.Minute)
	// Phase 2: silence; the judge cools it back to the default factor.
	sys.RunFor(30 * time.Minute)
	fmt.Printf("after cool-down:    replication = %d\n", sys.Replication("/demo/dataset"))
	// Phase 3: long silence; the file goes cold and is erasure-coded.
	sys.RunFor(3 * time.Hour)
	f := sys.HDFS().File("/demo/dataset")
	fmt.Printf("after cold phase:   encoded = %v, parity blocks = %d\n", f.Encoded, len(f.Parity()))
	// Phase 4: access it again; ERMS decodes immediately.
	sys.Read(3, "/demo/dataset", nil)
	sys.RunFor(20 * time.Minute)
	f = sys.HDFS().File("/demo/dataset")
	fmt.Printf("after re-access:    encoded = %v, replication = %d\n\n", f.Encoded, sys.Replication("/demo/dataset"))
}

func report(sys *erms.System, showLog bool) {
	fmt.Println("== decisions ==")
	for _, d := range sys.Decisions() {
		fmt.Println("  " + d.String())
	}
	m := sys.Manager()
	st := m.Stats()
	fmt.Printf("\n== summary ==\n")
	fmt.Printf("decisions: %d (increase %d, decrease %d, encode %d, decode %d)\n",
		st.Decisions, st.Increases, st.Decreases, st.Encodes, st.Decodes)
	fmt.Printf("standby commissions: %d, shutdowns: %d\n", st.Commissions, st.Shutdowns)
	cm := sys.Metrics()
	fmt.Printf("reads: %d completed, %.1f GB read, locality %d/%d/%d (node/rack/remote)\n",
		cm.ReadsCompleted, cm.BytesRead/erms.GB, cm.NodeLocalReads, cm.RackLocalReads, cm.RemoteReads)
	fmt.Printf("replication traffic: %.0f MB across %d replica adds\n", cm.ReplicationMB, cm.ReplicasAdded)
	fmt.Printf("robustness: %d repairs (%d attempts retried), time-to-repair p50/p99 %.1fs/%.1fs\n",
		st.Repairs, st.RepairsRetried, st.TimeToRepairP50, st.TimeToRepairP99)
	fmt.Printf("corruption: %d replicas found corrupt, %d blocks restored; stale nodes now: %d\n",
		st.CorruptFound, st.CorruptFixed, st.StaleNodes)
	fmt.Printf("storage used: %.1f GB across %d datanodes\n",
		sys.StorageUsed()/erms.GB, sys.HDFS().NumDatanodes())
	en := sys.Energy()
	fmt.Printf("energy: %d pool nodes, %.1f node-hours saved vs always-on\n",
		en.PoolNodes, en.SavedNodeHours)

	fmt.Println("\n== datanodes ==")
	for _, d := range sys.HDFS().Datanodes() {
		pool := ""
		if m.InStandbyPool(d.ID) {
			pool = " [pool]"
		}
		fmt.Printf("  %-8s %-8s blocks=%-4d used=%6.1f GB%s\n",
			d.Name, d.State, d.NumBlocks(), d.Used/erms.GB, pool)
	}
	if showLog {
		fmt.Println("\n== condor user log ==")
		for _, ev := range m.Scheduler().Log() {
			fmt.Println("  " + ev.String())
		}
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
