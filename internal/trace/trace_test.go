package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func testClock() (func() time.Duration, *time.Duration) {
	now := new(time.Duration)
	return func() time.Duration { return *now }, now
}

func TestSpanTree(t *testing.T) {
	clock, now := testClock()
	tr := New(clock)

	root := tr.Begin("judge.pass", 0)
	*now = 10 * time.Millisecond
	child := tr.Begin("cep.eval", root)
	tr.SetAttr(child, "stmt", "files")
	*now = 15 * time.Millisecond
	tr.End(child)
	leaf := tr.Instant("judge.decision", root)
	tr.SetAttrInt(leaf, "target", 6)
	*now = 20 * time.Millisecond
	tr.End(root)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("len(spans) = %d, want 3", len(spans))
	}
	if spans[0].Name != "judge.pass" || spans[0].Parent != 0 {
		t.Errorf("root = %+v", spans[0])
	}
	if spans[0].End != 20*time.Millisecond {
		t.Errorf("root end = %v", spans[0].End)
	}
	if spans[1].Parent != root || spans[1].Attr("stmt") != "files" {
		t.Errorf("child = %+v", spans[1])
	}
	if !spans[2].Instant || spans[2].Attr("target") != "6" {
		t.Errorf("instant = %+v", spans[2])
	}
	if got := spans[1].Category(); got != "cep" {
		t.Errorf("category = %q", got)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	id := tr.Begin("x", 0)
	if id != 0 {
		t.Fatalf("nil Begin = %d", id)
	}
	tr.SetAttr(id, "k", "v")
	tr.SetAttrInt(id, "k", 1)
	tr.End(id)
	tr.Instant("y", 0)
	prev := tr.Push(7)
	if prev != 0 || tr.Current() != 0 {
		t.Fatal("nil Push/Current not inert")
	}
	tr.Pop(prev)
	if tr.Len() != 0 || tr.Spans() != nil || tr.Summarize() != nil {
		t.Fatal("nil accessors not empty")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("nil export = %q", buf.String())
	}
}

func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		id := tr.Begin("hot.path", tr.Current())
		tr.SetAttrInt(id, "n", 42)
		prev := tr.Push(id)
		tr.Pop(prev)
		tr.End(id)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %v per op", allocs)
	}
}

func TestAmbientStack(t *testing.T) {
	clock, _ := testClock()
	tr := New(clock)
	a := tr.Begin("a.x", 0)
	prev := tr.Push(a)
	if tr.Current() != a {
		t.Fatal("current != a")
	}
	b := tr.Begin("b.y", tr.Current())
	inner := tr.Push(b)
	if tr.Current() != b {
		t.Fatal("current != b")
	}
	tr.Pop(inner)
	if tr.Current() != a {
		t.Fatal("pop did not restore a")
	}
	tr.Pop(prev)
	if tr.Current() != 0 {
		t.Fatal("pop did not restore root")
	}
	sp, ok := tr.Span(b)
	if !ok || sp.Parent != a {
		t.Fatalf("span b = %+v, %v", sp, ok)
	}
}

func TestChromeExportIsValidJSONAndDeterministic(t *testing.T) {
	build := func() *Tracer {
		clock, now := testClock()
		tr := New(clock)
		root := tr.Begin("judge.pass", 0)
		*now = 1500 * time.Nanosecond // fractional microseconds
		c := tr.Begin("hdfs.replica_add", root)
		tr.SetAttr(c, "path", `/data/"quoted"`)
		*now = 3 * time.Millisecond
		tr.End(c)
		tr.Instant("erms.commission", root)
		tr.End(root)
		tr.Begin("net.flow", c) // left open: exported with now as end
		return tr
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteChromeTrace(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChromeTrace(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("identical traces exported differently")
	}
	var events []map[string]any
	if err := json.Unmarshal(b1.Bytes(), &events); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, b1.String())
	}
	var spans, meta int
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			meta++
		case "X", "i":
			spans++
		}
	}
	if spans != 4 { // judge.pass, hdfs.replica_add, erms.commission, net.flow
		t.Fatalf("exported %d span events, want 4", spans)
	}
	if meta != 5 { // process_name + judge, hdfs, erms, net
		t.Fatalf("exported %d metadata events, want 5", meta)
	}
	if !strings.Contains(b1.String(), `"ts":1.500`) {
		t.Errorf("fractional microsecond timestamp not preserved:\n%s", b1.String())
	}
}

func TestSummarize(t *testing.T) {
	clock, now := testClock()
	tr := New(clock)
	a := tr.Begin("hdfs.read", 0)
	*now = 2 * time.Second
	tr.End(a)
	b := tr.Begin("hdfs.read", 0)
	*now = 3 * time.Second
	tr.End(b)
	tr.Instant("judge.decision", 0)

	sum := tr.Summarize()
	if len(sum) != 2 {
		t.Fatalf("summaries = %+v", sum)
	}
	if sum[0].Name != "hdfs.read" || sum[0].Count != 2 || sum[0].Total != 3*time.Second {
		t.Errorf("hdfs.read summary = %+v", sum[0])
	}
	if sum[1].Name != "judge.decision" || sum[1].Count != 1 {
		t.Errorf("judge.decision summary = %+v", sum[1])
	}
}
