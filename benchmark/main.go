// Command benchmark is the repository's one performance benchmark: four
// workloads against the public facade (erms.System, internal/server),
// six end-to-end metrics from untraced runs and a per-layer ledger from
// a separate traced run. See README.md.
//
//	bash benchmark/run.sh                                   # all workloads, both runs
//	bash benchmark/run.sh --workload hot-small --seed 7 --seconds 12 --trace 0
//	bash benchmark/run.sh -agree                            # same-code agreement
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// workloadDef is one named workload. run performs one repetition:
// set-up, timed section, correctness checks.
type workloadDef struct {
	name string
	why  string
	run  func(p params, tr *tracer) *rep
	// realClock marks the service workload: its single repetition spends
	// p.seconds itself rather than being repeated until p.seconds of timed
	// work have accumulated, and its simulated outputs need not repeat
	// exactly.
	realClock bool
	// sizedFor is what the "why" claims about where the CPU goes. A traced
	// run prints whether each claim holds at the measured shares; one that
	// stops holding means the workload no longer stresses what it was built
	// to stress and needs resizing (or a layer got faster: not an error).
	sizedFor []shareClaim
}

// shareClaim is one claim on a traced run's CPU shares by layer.
type shareClaim struct {
	layers  []string // their CPU seconds, summed
	largest bool     // the sum exceeds every layer outside the group
	under   float64  // the sum stays under this share of the total (0: no limit)
}

var workloads = []workloadDef{
	{name: "hot-small", run: hotSmall,
		why: "102k files of about 1 MB, Zipf(1.1) reads: short flows, so the judge, cep and the hdfs read path do the work. The driver wants every metric on every workload; filler here: lat_p50_ms",
		sizedFor: []shareClaim{
			{layers: []string{"core", "cep"}, largest: true},
			{layers: []string{"netsim"}, under: 0.25},
		}},
	{name: "swim-large", run: swimLarge,
		why:      "SWIM-style trace of 256-512 MB files: long multi-block flows and replication jobs, so netsim does the work, the judge little. Filler here (see hot-small): lat_p50_ms",
		sizedFor: []shareClaim{{layers: []string{"netsim"}, largest: true}}},
	{name: "churn-failover", run: churnFailover,
		why: "creates, deletes, cross-shard renames and 16 shard failovers on 4 journaled shards: metadata writes, netsim idle. Fillers here (see hot-small): lat_p50_ms, sim_read_mbps",
		sizedFor: []shareClaim{
			{layers: []string{"hdfs", "auditlog", "federation", "erms"}, largest: true},
			{layers: []string{"netsim", "cep"}, under: 0.05},
		}},
	{name: "serve-ops", run: serveOps, realClock: true,
		why: "real-clock HTTP service, open loop at 200/400/800 req/s then a closed loop of 2: server, JSON, the mutex and CatchUp. Fillers here (see hot-small): allocs_per_op, sim_read_mbps"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runWorkload makes one run: repetitions of w until p.seconds of timed
// work have accumulated (at least two, so set-up time is a median). A
// traced run first makes one untraced repetition as the reference for the
// tracing overhead.
func runWorkload(w workloadDef, p params) *result {
	var tr *tracer
	if p.traced {
		ref := p
		ref.traced = false
		r := w.run(ref, nil)
		p.baseSecPerOp = r.timedS / float64(r.ops)
		tr = newTracer()
	}
	var reps []*rep
	for spent := 0.0; ; {
		p.deepChecks = len(reps) == 0
		r := w.run(p, tr)
		reps = append(reps, r)
		spent += r.timedS
		if w.realClock || (spent >= p.seconds && len(reps) >= 2) {
			break
		}
	}
	res := aggregate(w, p, reps, tr)
	if p.traced {
		res.spanTable = tr.table()
		if err := os.MkdirAll("out", 0o755); err == nil {
			err = tr.writeChromeTrace(filepath.Join("out", w.name+".trace.json"))
			if err != nil {
				res.checks = append(res.checks, check{"trace-written", err.Error()})
			}
		}
	}
	return res
}

// print writes the run for a reader: every metric by name with its unit
// and the sample count behind it, then the exact-repeat fields and the
// correctness checks.
func (res *result) print(w io.Writer) {
	mode, defs := "untraced", endToEnd
	if res.traced {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "== %s (%s) ==\n", res.workload, mode)
	for _, d := range defs {
		note := ""
		if res.thin[d.name] {
			note = fmt.Sprintf(" (fewer than %d samples beyond)", minBeyond)
		}
		fmt.Fprintf(w, "  %-36s %16.6g %-6s n=%d%s\n", d.name, res.values[d.name], d.unit, res.samples[d.name], note)
	}
	if res.traced {
		res.printShares(w)
	}
	fmt.Fprint(w, res.spanTable)
	fmt.Fprintf(w, "  state_digest %#016x  events_fired %d  attempted %d  failed %d\n", res.digest, res.fired, res.attempted, res.failed)
	passed := map[string]int{}
	for _, c := range res.checks {
		if c.err != "" {
			fmt.Fprintf(w, "  CHECK FAILED %s: %s\n", c.name, c.err)
		} else {
			passed[c.name]++
		}
	}
	names := make([]string, 0, len(passed))
	for n := range passed {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  check %s ok x%d\n", n, passed[n])
	}
}

// printShares writes each layer's share of the traced run's CPU, largest
// first, and whether the shares the workload was sized for still hold.
func (res *result) printShares(w io.Writer) {
	total := res.values["trace.cpu_total_s"]
	if total == 0 {
		return
	}
	share := func(ls ...string) (sum float64) {
		for _, l := range ls {
			sum += res.values[l+".cpu_s"]
		}
		return sum / total
	}
	order := append([]string(nil), layers...)
	sort.SliceStable(order, func(i, j int) bool { return share(order[i]) > share(order[j]) })
	fmt.Fprint(w, "  cpu share:")
	for _, l := range order {
		if share(l) > 0 {
			fmt.Fprintf(w, " %s %.1f%%", l, 100*share(l))
		}
	}
	fmt.Fprintln(w)
	wl, _ := findWorkload(res.workload)
	for _, c := range wl.sizedFor {
		in, sum := map[string]bool{}, share(c.layers...)
		for _, l := range c.layers {
			in[l] = true
		}
		holds, what := c.under == 0 || sum < c.under, ""
		if c.under > 0 {
			what = fmt.Sprintf(" under %g%%", 100*c.under)
		}
		if c.largest {
			what += " the largest share"
			for _, l := range layers {
				holds = holds && (in[l] || share(l) < sum)
			}
		}
		verdict := "holds"
		if !holds {
			verdict = "NO LONGER HOLDS: resize the workload"
		}
		fmt.Fprintf(w, "  sized for %s%s: %.1f%% %s\n", strings.Join(c.layers, "+"), what, 100*sum, verdict)
	}
}

// jsonLine is the driver's contract: the last line of standard output.
func (res *result) jsonLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if res.traced {
		defs = perLayer
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		metrics[d.name] = mv{res.values[d.name], d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, metrics})
	if err != nil {
		panic(err) // only non-finite floats can fail here
	}
	return string(b)
}

// benchmarkJSON is the part of BENCHMARK.json the agreement mode and the
// tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON() (*benchmarkJSON, error) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bj, nil
}

// set is one full set of untraced runs: per workload, one run per seed.
type set map[string][]*result

// agreeRuns is how many untraced runs a set makes per workload, on seeds
// seed, seed+1, ...
const agreeRuns = 3

func runSet(ws []workloadDef, p params) (set, bool) {
	out, ok := set{}, true
	for _, w := range ws {
		for i := 0; i < agreeRuns; i++ {
			q := p
			q.seed = p.seed + int64(i)
			res := runWorkload(w, q)
			res.print(os.Stdout)
			ok = ok && res.correct()
			out[w.name] = append(out[w.name], res)
		}
	}
	return out, ok
}

func (s set) median(workload, metric string) float64 {
	var v []float64
	for _, r := range s[workload] {
		v = append(v, r.values[metric])
	}
	return median(v)
}

// agree runs two full sets back to back and reports whether every
// end-to-end metric's medians agree within its bound, in either
// direction, and every exact-repeat field matches to the bit.
func agree(ws []workloadDef, p params) bool {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, "agree:", err)
		return false
	}
	a, okA := runSet(ws, p)
	b, okB := runSet(ws, p)
	ok := okA && okB
	fmt.Printf("== same-code agreement, %d runs a set ==\n", agreeRuns)
	for _, w := range ws {
		for _, m := range bj.EndToEnd {
			ma, mb := a.median(w.name, m.Name), b.median(w.name, m.Name)
			diff := math.Abs(mb-ma) / math.Abs(ma)
			verdict := "ok"
			// Set-up of a fraction of a second may also differ by half a
			// second outright.
			if !(diff <= m.Bound) && !(m.Name == "setup_s" && math.Abs(mb-ma) <= 0.5) {
				verdict, ok = "DISAGREE", false
			}
			fmt.Printf("  %-15s %-14s %14.6g %14.6g  diff %.4f bound %.2f %s\n", w.name, m.Name, ma, mb, diff, m.Bound, verdict)
		}
		if w.realClock {
			continue
		}
		for i := range a[w.name] {
			ra, rb := a[w.name][i], b[w.name][i]
			same := ra.digest == rb.digest && ra.fired == rb.fired &&
				ra.values["sim_read_mbps"] == rb.values["sim_read_mbps"] && len(ra.exact) == len(rb.exact)
			for k, v := range ra.exact {
				same = same && rb.exact[k] == v
			}
			if !same {
				fmt.Printf("  %-15s seed %d: exact-repeat fields differ between the sets\n", w.name, p.seed+int64(i))
				ok = false
			}
		}
	}
	return ok
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all): "+workloadNames())
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 12, "seconds of timed work one run measures")
		trace    = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer ledger; -1: both")
		quick    = flag.Bool("quick", false, "tiny input sizes, for tests")
		agreeF   = flag.Bool("agree", false, "run two full sets back to back; exit non-zero if they disagree beyond BENCHMARK.json's bounds")
	)
	flag.Parse()

	ws := workloads
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (have %s)\n", *workload, workloadNames())
			os.Exit(2)
		}
		ws = []workloadDef{w}
	}
	p := params{seed: *seed, seconds: *seconds, quick: *quick}
	if *agreeF {
		if !agree(ws, p) {
			os.Exit(1)
		}
		return
	}
	modes := []bool{false, true}
	if *trace >= 0 {
		modes = []bool{*trace == 1}
	}
	ok := true
	var last *result
	for _, w := range ws {
		for _, traced := range modes {
			p.traced = traced
			last = runWorkload(w, p)
			last.print(os.Stdout)
			ok = ok && last.correct()
		}
	}
	if len(ws) == 1 && len(modes) == 1 {
		fmt.Println(last.jsonLine())
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}
