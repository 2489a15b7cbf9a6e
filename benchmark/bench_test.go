package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tiny_cpu.pb.gz from the stacks in this file")

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 { // n, n-1, ..., 1: unsorted on purpose
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	cases := []struct {
		name      string
		samples   []float64
		p         float64
		want      float64
		n         int
		supported bool
	}{
		{"empty", nil, 99, 0, 0, false},
		{"one sample", []float64{7}, 50, 7, 1, false},
		{"median of 1000", seq(1000), 50, 500, 1000, true},
		{"p99 of 1000 has exactly ten beyond", seq(1000), 99, 990, 1000, true},
		{"p99 of 999 has nine beyond", seq(999), 99, 990, 999, false},
		{"p99 of 100 is one outlier", seq(100), 99, 99, 100, false},
		{"p90 of 100 has ten beyond", seq(100), 90, 90, 100, true},
		{"p50 of 19 has nine beyond", seq(19), 50, 10, 19, false},
		{"p50 of 20 has ten beyond", seq(20), 50, 10, 20, true},
	}
	for _, c := range cases {
		before := append([]float64(nil), c.samples...)
		v, n, ok := percentile(c.samples, c.p)
		if v != c.want || n != c.n || ok != c.supported {
			t.Errorf("%s: percentile = (%v, %d, %v), want (%v, %d, %v)", c.name, v, n, ok, c.want, c.n, c.supported)
		}
		for i := range before {
			if c.samples[i] != before[i] {
				t.Errorf("%s: input was reordered", c.name)
				break
			}
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", m)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	tr.names = []string{"parent", "child"}
	tr.spans = []span{
		{name: 0, parent: -1, start: 0, end: 100},
		{name: 1, parent: 0, start: 10, end: 40},
		{name: 1, parent: 0, start: 50, end: 60},
	}
	st := tr.stats()
	if got := st["parent"].selfNS; got != 60 {
		t.Errorf("parent self time = %d ns, want 100 - 30 - 10 = 60", got)
	}
	if got := st["child"]; got.count != 2 || got.selfNS != 40 || got.totalNS != 40 {
		t.Errorf("child = %+v, want 2 spans, 40 ns total and self", got)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", 0, -1)) // an untraced run records nothing
}

// tinyStacks is the content of testdata/tiny_cpu.pb.gz: each stack leaf
// first, a "|" joining functions inlined into one location (innermost
// first), with its CPU time and the layer it must be attributed to.
var tinyStacks = []struct {
	stack []string
	ms    int64
	layer string
}{
	{[]string{"runtime.mallocgc", "erms/internal/hdfs.(*Cluster).ReadFile", "erms.(*System).Read", "main.hotSmall"}, 30, "hdfs"},
	{[]string{"erms/internal/core.sortedKeys[go.shape.map[string]map[erms/internal/hdfs.BlockID]float64]|erms/internal/core.(*Judge).Evaluate",
		"erms/internal/sim.(*Engine).Step", "main.hotSmall"}, 20, "core"},
	{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, 10, "runtime"},
	{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, 10, "bench"},
	{[]string{"encoding/json.Unmarshal", "erms/internal/server.(*Server).handleOps", "net/http.(*conn).serve"}, 10, "server"},
	{[]string{"erms/internal/topology.(*Topology).Rack", "erms/internal/netsim.(*Fabric).recompute"}, 5, "other"},
	{[]string{"erms.(*System).FailoverShard", "main.churnFailover"}, 5, "erms"},
	// A correctness check inside a timed section is the harness's work,
	// however deep into the system it calls.
	{[]string{"erms/internal/hdfs.(*Cluster).ReplicationOf", "erms.(*System).Replication", "main.checkNamespace", "main.churnFailover.func2", "main.(*measured).exclude"}, 10, "bench"},
	{[]string{"runtime.memmove", "erms/internal/invariant.CheckFederation", "erms/benchmark.checkNamespace"}, 5, "bench"},
}

// pbWriter encodes the few protobuf shapes a profile needs.
type pbWriter struct{ b []byte }

func (w *pbWriter) varint(v uint64) {
	for v >= 0x80 {
		w.b = append(w.b, byte(v)|0x80)
		v >>= 7
	}
	w.b = append(w.b, byte(v))
}
func (w *pbWriter) uint(num int, v uint64) { w.varint(uint64(num)<<3 | 0); w.varint(v) }
func (w *pbWriter) bytes(num int, b []byte) {
	w.varint(uint64(num)<<3 | 2)
	w.varint(uint64(len(b)))
	w.b = append(w.b, b...)
}
func (w *pbWriter) packed(num int, vs ...uint64) {
	var inner pbWriter
	for _, v := range vs {
		inner.varint(v)
	}
	w.bytes(num, inner.b)
}

// buildTinyProfile encodes tinyStacks as a gzip-compressed pprof profile
// with sample types (samples/count, cpu/nanoseconds).
func buildTinyProfile(t *testing.T) []byte {
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var prof pbWriter
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pbWriter
		m.uint(1, str(vt[0]))
		m.uint(2, str(vt[1]))
		prof.bytes(1, m.b)
	}
	funcID := map[string]uint64{}
	locID := map[string]uint64{}
	var funcs, locs pbWriter
	for _, ts := range tinyStacks {
		var ids []uint64
		for _, frame := range ts.stack {
			if _, ok := locID[frame]; !ok {
				var loc pbWriter
				locID[frame] = uint64(len(locID) + 1)
				loc.uint(1, locID[frame])
				for _, fn := range strings.Split(frame, "|") {
					if _, ok := funcID[fn]; !ok {
						funcID[fn] = uint64(len(funcID) + 1)
						var f pbWriter
						f.uint(1, funcID[fn])
						f.uint(2, str(fn))
						funcs.bytes(5, f.b)
					}
					var line pbWriter
					line.uint(1, funcID[fn])
					loc.bytes(4, line.b)
				}
				locs.bytes(4, loc.b)
			}
			ids = append(ids, locID[frame])
		}
		var s pbWriter
		s.packed(1, ids...)
		s.packed(2, uint64(ts.ms/10), uint64(ts.ms*1e6))
		prof.bytes(2, s.b)
	}
	prof.b = append(prof.b, locs.b...)
	prof.b = append(prof.b, funcs.b...)
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestDecodeTinyProfile(t *testing.T) {
	path := filepath.Join("testdata", "tiny_cpu.pb.gz")
	if *update {
		if err := os.WriteFile(path, buildTinyProfile(t), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := decodeProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(prof.sampleTypes, ","); got != "samples,cpu" {
		t.Errorf("sample types = %q, want samples,cpu", got)
	}
	if len(prof.samples) != len(tinyStacks) {
		t.Fatalf("%d samples, want %d", len(prof.samples), len(tinyStacks))
	}
	want := map[string]float64{}
	var wantTotal float64
	for i, ts := range tinyStacks {
		flat := strings.Split(strings.Join(ts.stack, "|"), "|")
		if got := prof.samples[i].stack; strings.Join(got, " ") != strings.Join(flat, " ") {
			t.Errorf("sample %d stack = %q, want %q", i, got, flat)
		}
		if got := layerOf(prof.samples[i].stack); got != ts.layer {
			t.Errorf("sample %d attributed to %q, want %q", i, got, ts.layer)
		}
		want[ts.layer] += float64(ts.ms) / 1e3
		wantTotal += float64(ts.ms) / 1e3
	}
	byLayer, total, gcBg := cpuByLayer(prof)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if !near(total, wantTotal) || !near(gcBg, 0.010) {
		t.Errorf("total %v gcBg %v, want %v and 0.010", total, gcBg, wantTotal)
	}
	for l, w := range want {
		if !near(byLayer[l], w) {
			t.Errorf("layer %s = %v s, want %v", l, byLayer[l], w)
		}
	}
	if len(byLayer) != len(want) {
		t.Errorf("layers %v, want %v", byLayer, want)
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decoding garbage succeeded")
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := bj.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Bound != bounds[d.name] || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: BENCHMARK.json bound %v better %q, program bound %v", m.Name, m.Bound, m.Better, bounds[d.name])
		}
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d (at most 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if m := bj.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}

// wantChecks are the correctness checks each workload must execute, in
// both kinds of run.
var wantChecks = map[string][]string{
	"hot-small":      {"reads-complete", "invariants", "checkpoint-restore-digest", "repetitions-identical"},
	"swim-large":     {"reads-complete", "invariants", "checkpoint-restore-digest", "repetitions-identical"},
	"churn-failover": {"ops-succeed", "reads-complete", "failover-checkpoint-restore-digest", "federation-ownership", "shadow-namespace", "checkpoint-restore-digest", "repetitions-identical"},
	"serve-ops":      {"control-plane", "all-200", "ops-accounted", "status-matches-client", "reads-succeed", "checkpoint-restore-digest"},
}

// TestQuickWorkloads runs every workload at -quick scale, untraced and
// traced, and holds the output to the contract: every metric of
// BENCHMARK.json printed exactly once with its unit, the JSON line
// carrying exactly those metrics, and every correctness check executed.
func TestQuickWorkloads(t *testing.T) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			p := params{seed: 7, seconds: 0.01, quick: true, traced: traced}
			if w.realClock {
				p.seconds = 0.9
			}
			res := runWorkload(w, p)
			var out bytes.Buffer
			res.print(&out)
			if !res.correct() {
				t.Errorf("%s traced=%v: a correctness check failed:\n%s", w.name, traced, out.String())
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", w.name, traced, res.attempted, res.failed)
			}

			units := map[string]string{}
			for _, m := range bj.EndToEnd {
				if !traced {
					units[m.Name] = m.Unit
				}
			}
			for _, m := range bj.PerLayer {
				if traced {
					units[m.Name] = m.Unit
				}
			}
			printed := map[string]int{}
			for _, line := range strings.Split(out.String(), "\n") {
				f := strings.Fields(line)
				if len(f) >= 3 {
					if unit, ok := units[f[0]]; ok {
						printed[f[0]]++
						if f[2] != unit {
							t.Errorf("%s: %s printed with unit %q, want %q", w.name, f[0], f[2], unit)
						}
					}
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.jsonLine()), &line); err != nil {
				t.Fatalf("%s: JSON line: %v", w.name, err)
			}
			if len(line.Metrics) != len(units) || !line.Correct || line.Attempted != res.attempted {
				t.Errorf("%s traced=%v: JSON line has %d metrics (want %d), correct=%v attempted=%d", w.name, traced, len(line.Metrics), len(units), line.Correct, line.Attempted)
			}
			for name, unit := range units {
				if printed[name] != 1 {
					t.Errorf("%s traced=%v: %s printed %d times, want once", w.name, traced, name, printed[name])
				}
				m, ok := line.Metrics[name]
				if !ok || m.Value == nil || m.Unit != unit {
					t.Errorf("%s traced=%v: JSON line lacks %s [%s]", w.name, traced, name, unit)
				} else if !traced && !(*m.Value > 0) {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.name, name, *m.Value)
				}
			}

			ran := map[string]bool{}
			for _, c := range res.checks {
				ran[c.name] = true
			}
			want := wantChecks[w.name]
			if traced {
				want = append([]string{"cpu-profile"}, want...)
			}
			for _, name := range want {
				if !ran[name] {
					t.Errorf("%s traced=%v: check %s did not execute", w.name, traced, name)
				}
			}
			if traced {
				checkTraceFile(t, w.name)
				if (res.values["server.cpu_s"] > 0 || res.values["server.requests"] > 0) != (w.name == "serve-ops") {
					t.Errorf("%s: server.* must be non-zero on serve-ops only", w.name)
				}
			}
		}
	}
}

func checkTraceFile(t *testing.T, workload string) {
	data, err := os.ReadFile(filepath.Join("out", workload+".trace.json"))
	if err != nil {
		t.Errorf("%s: %v", workload, err)
		return
	}
	var tf struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args struct{ Parent int }
		}
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Errorf("%s: trace file: %v", workload, err)
		return
	}
	if len(tf.TraceEvents) == 0 || tf.TraceEvents[0].Ph != "X" || tf.TraceEvents[0].Name == "" {
		t.Errorf("%s: trace file holds %d events", workload, len(tf.TraceEvents))
	}
}
