package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"erms/internal/trace"
)

// chain reports whether sp's ancestry, walking parent links upward,
// passes through the given span names in order (nearest first).
func chain(tr *trace.Tracer, sp trace.Span, names ...string) bool {
	cur := sp
	for _, want := range names {
		found := false
		for cur.Parent != 0 {
			parent, ok := tr.Span(cur.Parent)
			if !ok {
				return false
			}
			cur = parent
			if cur.Name == want {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestTraceDemoEndToEnd is the tentpole acceptance test: one hot file's
// journey must appear as a single linked span tree — audit burst →
// judge verdict → Condor job → per-replica transfer — and the exported
// Chrome trace must be byte-identical across runs.
func TestTraceDemoEndToEnd(t *testing.T) {
	tr := TraceDemo().Tracer()

	byName := map[string][]trace.Span{}
	for _, sp := range tr.Spans() {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	for _, name := range []string{
		"hdfs.read", "hdfs.block_read", "net.flow",
		"judge.pass", "judge.decision", "condor.job", "condor.attempt",
		"hdfs.set_replication", "hdfs.replica_add",
		"hdfs.commission", "hdfs.standby", "cep.eval",
	} {
		if len(byName[name]) == 0 {
			t.Errorf("no %s spans recorded", name)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// The judge's verdict on the hot file must be recorded with the path
	// and link up to its judge pass.
	var verdict *trace.Span
	for i := range byName["judge.decision"] {
		sp := byName["judge.decision"][i]
		if sp.Attr("path") == TraceHotPath && sp.Attr("action") == "increase" {
			verdict = &sp
			break
		}
	}
	if verdict == nil {
		t.Fatalf("no increase verdict for %s among %d decisions", TraceHotPath, len(byName["judge.decision"]))
	}
	if !chain(tr, *verdict, "judge.pass") {
		t.Fatal("judge.decision not parented under judge.pass")
	}

	// A replica copy's network flow must link flow → replica_add →
	// set_replication → condor attempt → condor job → the verdict above →
	// judge.pass: the full control loop in one ancestry walk.
	linked := false
	for _, flow := range byName["net.flow"] {
		if chain(tr, flow, "hdfs.replica_add", "hdfs.set_replication",
			"condor.attempt", "condor.job", "judge.decision", "judge.pass") {
			linked = true
			break
		}
	}
	if !linked {
		t.Fatal("no net.flow linked through replica_add/set_replication/condor to a judge pass")
	}

	// The access burst must be visible: reads of the hot path whose block
	// transfers link under them.
	readLinked := false
	for _, rd := range byName["hdfs.read"] {
		if rd.Attr("path") != TraceHotPath {
			continue
		}
		for _, flow := range byName["net.flow"] {
			if chain(tr, flow, "hdfs.block_read", "hdfs.read") {
				readLinked = true
				break
			}
		}
		break
	}
	if !readLinked {
		t.Fatal("no read flow linked under an hdfs.read span for the hot path")
	}

	// Export is valid JSON and byte-identical across a fresh run.
	var buf1 bytes.Buffer
	if err := tr.WriteChromeTrace(&buf1); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf1.Bytes(), &events); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty export")
	}
	var buf2 bytes.Buffer
	if err := TraceDemo().Tracer().WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("trace export not byte-identical across runs (%d vs %d bytes)", buf1.Len(), buf2.Len())
	}
}

// TestTraceDemoMetricsSnapshot checks the registry the demo populated
// renders a Prometheus snapshot whose counters reflect the run.
func TestTraceDemoMetricsSnapshot(t *testing.T) {
	reg := TraceDemo().Registry()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE erms_decisions_total counter",
		"# TYPE hdfs_reads_completed_total counter",
		"# TYPE condor_jobs_submitted_total counter",
		"# TYPE net_bytes_moved_total counter",
		"cep_events_inserted_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot missing %q", want)
		}
	}
	if strings.Contains(out, " 0\nerms_decisions_total") {
		t.Error("decisions counter should be nonzero")
	}
	dec := reg.Counter("erms_decisions_total")
	if dec.Int() == 0 {
		t.Error("no decisions recorded in registry")
	}
}
