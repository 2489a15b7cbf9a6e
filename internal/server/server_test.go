package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"erms"
	"erms/internal/sim"
	"erms/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testSystem builds a service-mode System on a simulated wall clock, so
// handler behaviour is fully deterministic: tests advance time by moving
// the wall and letting the handlers' CatchUp do the pacing, exactly as
// the pump would against a real clock.
func testSystem(t *testing.T, mutate func(*erms.Options)) (*Server, *sim.SimClock) {
	t.Helper()
	wall := sim.NewSimClock(sim.NewEngine())
	opts := erms.Options{Clock: wall}
	if mutate != nil {
		mutate(&opts)
	}
	sys := erms.NewSystem(opts)
	t.Cleanup(sys.Stop)
	return New(sys), wall
}

// do runs one request through the server's mux and returns the recorder.
func do(t *testing.T, s *Server, method, target string, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func postOps(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	return do(t, s, http.MethodPost, "/v1/ops", body)
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return v
}

func TestOpsRoundTrip(t *testing.T) {
	s, wall := testSystem(t, nil)

	w := postOps(t, s, `{"ops":[
		{"op":"create","path":"/srv/a","size_mb":192},
		{"op":"create","path":"/srv/b","size_mb":256,"repl":4,"client":2},
		{"op":"read","path":"/srv/a","client":5},
		{"op":"readrange","path":"/srv/b","client":1,"offset_mb":64,"length_mb":64},
		{"op":"delete","path":"/srv/a"}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("ops: got %d, body %s", w.Code, w.Body.String())
	}
	resp := decode[OpsResponse](t, w)
	if resp.Accepted != 5 || resp.Failed != 0 {
		t.Fatalf("want 5 accepted / 0 failed, got %+v", resp)
	}

	// Runtime failures (missing path) are per-op, not whole-batch.
	w = postOps(t, s, `{"ops":[{"op":"delete","path":"/srv/nope"},{"op":"read","path":"/srv/b"}]}`)
	resp = decode[OpsResponse](t, w)
	if w.Code != http.StatusOK || resp.Failed != 1 || resp.Accepted != 1 {
		t.Fatalf("mixed batch: code %d resp %+v", w.Code, resp)
	}
	if len(resp.Errors) != 1 || resp.Errors[0].Index != 0 {
		t.Fatalf("want error on op 0, got %+v", resp.Errors)
	}

	// Let the reads play out, then confirm the namespace through /v1/status.
	wall.Advance(time.Minute)
	st := decode[StatusResponse](t, do(t, s, http.MethodGet, "/v1/status", ""))
	if st.Files != 1 {
		t.Fatalf("want 1 file after create+create+delete, got %d", st.Files)
	}
	if st.Ops.Accepted != 6 || st.Ops.Failed != 1 {
		t.Fatalf("ops counters: %+v", st.Ops)
	}
	if st.NowSeconds < 60 {
		t.Fatalf("CatchUp did not pace virtual time: now=%v", st.NowSeconds)
	}
	if st.Mode != "service" || st.State != Running {
		t.Fatalf("mode/state: %q/%q", st.Mode, st.State)
	}
}

func TestOpsValidation(t *testing.T) {
	s, _ := testSystem(t, nil)
	cases := []struct {
		name string
		body string
	}{
		{"bad-json", `{"ops":[`},
		{"empty-batch", `{"ops":[]}`},
		{"no-ops-key", `{}`},
		{"unknown-op", `{"ops":[{"op":"rename","path":"/a"}]}`},
		{"missing-path", `{"ops":[{"op":"read"}]}`},
		{"create-no-size", `{"ops":[{"op":"create","path":"/a"}]}`},
		{"negative-client", `{"ops":[{"op":"read","path":"/a","client":-1}]}`},
		{"negative-offset", `{"ops":[{"op":"readrange","path":"/a","offset_mb":-1}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postOps(t, s, tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("want 400, got %d: %s", w.Code, w.Body.String())
			}
			if e := decode[map[string]string](t, w); e["error"] == "" {
				t.Fatalf("want error envelope, got %s", w.Body.String())
			}
		})
	}
	// Nothing from the rejected batches may have been applied.
	st := decode[StatusResponse](t, do(t, s, http.MethodGet, "/v1/status", ""))
	if st.Files != 0 || st.Ops.Accepted != 0 {
		t.Fatalf("rejected batches leaked state: %+v", st)
	}
}

// TestStatusGolden pins the full /v1/status JSON for a deterministic
// sim-clock deployment — field renames or accidental semantic drift
// against `ermsctl status` show up as a golden diff.
func TestStatusGolden(t *testing.T) {
	s, wall := testSystem(t, func(o *erms.Options) {
		o.EnableJournal = true
	})
	w := postOps(t, s, `{"ops":[
		{"op":"create","path":"/golden/a","size_mb":128},
		{"op":"create","path":"/golden/b","size_mb":512},
		{"op":"read","path":"/golden/a","client":3}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("seeding ops: %d %s", w.Code, w.Body.String())
	}
	wall.Advance(10 * time.Minute)

	got := do(t, s, http.MethodGet, "/v1/status", "").Body.Bytes()
	path := filepath.Join("testdata", "status.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("/v1/status drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, wall := testSystem(t, nil)
	postOps(t, s, `{"ops":[{"op":"create","path":"/m/a","size_mb":64}]}`)
	wall.Advance(time.Minute)

	w := do(t, s, http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{"hdfs_files", "# TYPE"} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics body missing %q:\n%s", want, body)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	// Tracing off → 404 with advice.
	s, _ := testSystem(t, nil)
	if w := do(t, s, http.MethodGet, "/v1/trace", ""); w.Code != http.StatusNotFound {
		t.Fatalf("trace without tracer: want 404, got %d", w.Code)
	}

	s, wall := testSystem(t, func(o *erms.Options) { o.EnableTrace = true })
	postOps(t, s, `{"ops":[{"op":"create","path":"/t/a","size_mb":64},{"op":"read","path":"/t/a"}]}`)
	wall.Advance(time.Minute)
	w := do(t, s, http.MethodGet, "/v1/trace", "")
	if w.Code != http.StatusOK {
		t.Fatalf("trace: %d %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace content type %q", ct)
	}
	var events []json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a chrome-trace event array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace has no events despite workload")
	}
}

func TestLifecycle(t *testing.T) {
	s, _ := testSystem(t, nil)

	// Drain: state flips, ops bounce with 503, status still serves.
	cr := decode[ControlResponse](t, do(t, s, http.MethodPost, "/v1/drain", ""))
	if cr.State != Draining {
		t.Fatalf("drain: %+v", cr)
	}
	if w := postOps(t, s, `{"ops":[{"op":"create","path":"/x","size_mb":64}]}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("ops while draining: want 503, got %d", w.Code)
	}
	if st := decode[StatusResponse](t, do(t, s, http.MethodGet, "/v1/status", "")); st.State != Draining {
		t.Fatalf("status while draining: %+v", st.State)
	}

	// Start resumes ingestion.
	cr = decode[ControlResponse](t, do(t, s, http.MethodPost, "/v1/start", ""))
	if cr.State != Running {
		t.Fatalf("start: %+v", cr)
	}
	if w := postOps(t, s, `{"ops":[{"op":"create","path":"/x","size_mb":64}]}`); w.Code != http.StatusOK {
		t.Fatalf("ops after restart: %d %s", w.Code, w.Body.String())
	}

	// Stop is terminal: ops bounce and start conflicts.
	cr = decode[ControlResponse](t, do(t, s, http.MethodPost, "/v1/stop", ""))
	if cr.State != Stopped {
		t.Fatalf("stop: %+v", cr)
	}
	if w := postOps(t, s, `{"ops":[{"op":"read","path":"/x"}]}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("ops after stop: want 503, got %d", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/v1/start", ""); w.Code != http.StatusConflict {
		t.Fatalf("start after stop: want 409, got %d", w.Code)
	}
}

// TestTraceReplay posts a swimgen-format trace and checks the whole
// workload is scheduled relative to ingestion time and plays out as the
// wall advances.
func TestTraceReplay(t *testing.T) {
	s, wall := testSystem(t, nil)
	// Anchor the replay away from t=0 to prove scheduling is relative.
	wall.Advance(time.Minute)
	do(t, s, http.MethodGet, "/v1/status", "") // CatchUp to the new wall time

	tr := &workload.Trace{
		Seed:     7,
		Duration: 10 * time.Minute,
		Files: []workload.FileSpec{
			{Path: "/replay/a", Size: 128 * erms.MB, CreateAt: 0},
			{Path: "/replay/b", Size: 64 * erms.MB, CreateAt: 30 * time.Second},
		},
		Jobs: []workload.JobSpec{
			{Submit: time.Minute, File: "/replay/a", Client: 4},
			{Submit: 2 * time.Minute, File: "/replay/b", Client: 9, Offset: 16 * erms.MB, Length: 16 * erms.MB},
		},
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	w := do(t, s, http.MethodPost, "/v1/ops?format=trace", buf.String())
	if w.Code != http.StatusOK {
		t.Fatalf("trace replay: %d %s", w.Code, w.Body.String())
	}
	rr := decode[TraceReplayResponse](t, w)
	if rr.Files != 2 || rr.Jobs != 2 {
		t.Fatalf("replay summary: %+v", rr)
	}
	if rr.NowSeconds < 60 {
		t.Fatalf("replay not anchored at current time: %+v", rr)
	}

	// Nothing exists yet; the first create lands only when time reaches it.
	st := decode[StatusResponse](t, do(t, s, http.MethodGet, "/v1/status", ""))
	if st.Files != 0 {
		t.Fatalf("replay applied eagerly: %d files", st.Files)
	}
	wall.Advance(10 * time.Second)
	st = decode[StatusResponse](t, do(t, s, http.MethodGet, "/v1/status", ""))
	if st.Files != 1 {
		t.Fatalf("want first create played, got %d files", st.Files)
	}
	wall.Advance(5 * time.Minute)
	st = decode[StatusResponse](t, do(t, s, http.MethodGet, "/v1/status", ""))
	if st.Files != 2 {
		t.Fatalf("want both creates played, got %d files", st.Files)
	}

	// Malformed trace body → 400.
	if w := do(t, s, http.MethodPost, "/v1/ops?format=trace", "not json"); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed trace: want 400, got %d", w.Code)
	}

	// An item timed before now → 400, and nothing of the trace is
	// scheduled, not even the valid items ahead of it.
	pending := s.sys.Engine().Pending()
	for _, body := range []string{
		`{"files":[{"path":"/ok","size":1,"createAt":1000000000},{"path":"/neg","size":1,"createAt":-1000000000}]}`,
		`{"files":[{"path":"/ok","size":1}],"jobs":[{"file":"/ok","submit":2000000000},{"file":"/ok","submit":-1000000000}]}`,
	} {
		if w := do(t, s, http.MethodPost, "/v1/ops?format=trace", body); w.Code != http.StatusBadRequest {
			t.Fatalf("trace %s: want 400, got %d %s", body, w.Code, w.Body.String())
		}
		if got := s.sys.Engine().Pending(); got != pending {
			t.Fatalf("trace %s: %d events pending, %d before", body, got, pending)
		}
	}
}

// TestFederatedStatus checks the per-shard rows mirror
// `ermsctl status -shards` on a federated deployment.
func TestFederatedStatus(t *testing.T) {
	s, wall := testSystem(t, func(o *erms.Options) {
		o.Shards = 2
		o.EnableJournal = true
	})
	w := postOps(t, s, `{"ops":[
		{"op":"create","path":"/fed/a","size_mb":64},
		{"op":"create","path":"/fed/b","size_mb":64},
		{"op":"create","path":"/fed/c","size_mb":64},
		{"op":"create","path":"/fed/d","size_mb":64}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("seeding: %d %s", w.Code, w.Body.String())
	}
	wall.Advance(time.Minute)
	st := decode[StatusResponse](t, do(t, s, http.MethodGet, "/v1/status", ""))
	if len(st.Shards) != 2 {
		t.Fatalf("want 2 shard rows, got %+v", st.Shards)
	}
	total := 0
	for i, row := range st.Shards {
		if row.Shard != i {
			t.Fatalf("shard row %d misnumbered: %+v", i, row)
		}
		if row.Epoch == 0 || row.JournalEpoch != row.Epoch {
			t.Fatalf("shard %d epochs: %+v", i, row)
		}
		if row.RepairQueues == nil {
			t.Fatalf("shard %d missing repair queues", i)
		}
		total += row.Files
	}
	if total != 4 || st.Files != 4 {
		t.Fatalf("files: shard sum %d, total %d", total, st.Files)
	}
}

// TestPumpSimClock runs the pacer against the simulated wall clock: a
// Start/StopPump cycle must be clean, and StartPump must refuse a
// sim-only system.
func TestPumpSimClock(t *testing.T) {
	simOnly := erms.NewSystem(erms.Options{})
	defer simOnly.Stop()
	if err := New(simOnly).StartPump(); err == nil {
		t.Fatal("pump on a sim-only system must refuse")
	}

	s, _ := testSystem(t, nil)
	if err := s.StartPump(); err != nil {
		t.Fatal(err)
	}
	if err := s.StartPump(); err != nil {
		t.Fatalf("second StartPump must be a no-op: %v", err)
	}
	s.StopPump()
	s.StopPump() // idempotent
}
