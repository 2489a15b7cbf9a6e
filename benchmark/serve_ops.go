package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"erms"
	"erms/internal/server"
)

// serveSize sizes serve-ops. Requests are batches of 8 ops (6 Zipf reads
// of base files, 1 create, 1 delete of a file created churnLag requests
// earlier), so no op can fail and the namespace stays at base+churnLag
// files.
type serveSize struct {
	nodes, racks, files int
	judgePeriod, window time.Duration
	warmup              time.Duration
}

// options builds the cluster the size describes; clock is nil for the
// cold-restore target, which needs no pacing.
func (sz serveSize) options(clock erms.WallClock) erms.Options {
	return erms.Options{
		Racks: sz.racks, Nodes: sz.nodes, Clock: clock,
		JudgePeriod: sz.judgePeriod, Thresholds: erms.Thresholds{Window: sz.window},
	}
}

func serveSizeFor(quick bool) serveSize {
	if quick {
		return serveSize{nodes: 18, racks: 3, files: 400, judgePeriod: 100 * time.Millisecond,
			window: time.Second, warmup: 100 * time.Millisecond}
	}
	return serveSize{nodes: 54, racks: 9, files: 20000, judgePeriod: 500 * time.Millisecond,
		window: time.Second, warmup: 500 * time.Millisecond}
}

const (
	churnLag    = 64 // requests between a churn file's create and its delete
	connCount   = 2  // connections of load, the sandbox's core count
	opsPerReq   = 8
	readsPerReq = opsPerReq - 2
	fileMB      = 0.25
	reqHeader   = "X-Bench-Req"
	// maxClosedRate is how many request bodies are pre-encoded per second
	// of closed loop: four times what the reference box serves.
	maxClosedRate = 6000
)

// The open-loop rates, and each phase's share of --seconds. The 400 req/s
// phase feeds the end-to-end median latency, so it gets half the run. The
// closed loop takes the last quarter.
var openRates = []float64{200, 400, 800}
var openShare = []float64{1.0 / 8, 1.0 / 2, 1.0 / 8}

const (
	e2ePhase    = 1 // index of the 400 req/s phase in openRates
	closedShare = 1.0 / 4
)

// reqRec is the client's view of one request. Times are offsets from the
// phase start.
type reqRec struct {
	idx             int // index of the request body, unique over the run
	due, sent, done time.Duration
	late            time.Duration // generator lateness: sender was free, woke late
	virtualS        float64       // the server's virtual clock when it answered
	ok              bool
}

// service is one built system under test with its HTTP front.
type service struct {
	sys     *erms.System
	srv     *server.Server
	ts      *httptest.Server
	client  *http.Client
	bodies  [][]byte
	handler []atomic.Int64 // ns inside the handler, by request index
	tr      *tracer
	non200  atomic.Int64
	sentOps atomic.Int64 // ops in requests sent
	accOps  atomic.Int64 // ops the responses reported accepted
	failOps atomic.Int64 // ops the responses reported failed
}

func churnPath(i int) string { return "/srv/n" + strconv.Itoa(i) }

// buildService builds the cluster, its namespace (through POST /v1/ops)
// and every request body of the run.
func buildService(p params, sz serveSize, tr *tracer, nBodies int) (*service, error) {
	s := &service{tr: tr}
	s.sys = erms.NewSystem(sz.options(erms.RealClock()))
	s.srv = server.New(s.sys)
	if err := s.srv.StartPump(); err != nil {
		return nil, err
	}
	inner := s.srv.Handler()
	s.handler = make([]atomic.Int64, nBodies)
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get(reqHeader))
		if err != nil || id < 0 || id >= len(s.handler) {
			inner.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get(reqHeader + "-Span"))
		sp := s.tr.begin("server.handler", int64(id), int32(parent))
		t0 := time.Now()
		inner.ServeHTTP(w, r)
		s.handler[id].Store(int64(time.Since(t0)))
		s.tr.end(sp)
	}))
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: connCount, MaxConnsPerHost: connCount}}

	rng := rand.New(rand.NewSource(p.seed))
	base := make([]string, sz.files)
	var ops []server.Op
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		body, err := json.Marshal(server.OpsRequest{Ops: ops})
		if err != nil {
			return err
		}
		n := len(ops)
		ops = ops[:0]
		_, err = s.post(body, -1, n)
		return err
	}
	create := func(path string) error {
		ops = append(ops, server.Op{Op: "create", Path: path, SizeMB: fileMB, Client: rng.Intn(sz.nodes)})
		if len(ops) == 500 {
			return flush()
		}
		return nil
	}
	for i := range base {
		base[i] = fmt.Sprintf("/srv/f%05d", i)
		if err := create(base[i]); err != nil {
			return nil, err
		}
	}
	for i := 0; i < churnLag; i++ {
		if err := create(churnPath(i)); err != nil {
			return nil, err
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}

	zipf := rand.NewZipf(rng, 1.1, 1, uint64(sz.files-1))
	rank := rng.Perm(sz.files)
	s.bodies = make([][]byte, nBodies)
	req := server.OpsRequest{Ops: make([]server.Op, opsPerReq)}
	for i := range s.bodies {
		for j := 0; j < readsPerReq; j++ {
			req.Ops[j] = server.Op{Op: "read", Path: base[rank[zipf.Uint64()]], Client: rng.Intn(sz.nodes)}
		}
		req.Ops[opsPerReq-2] = server.Op{Op: "create", Path: churnPath(i + churnLag), SizeMB: fileMB, Client: rng.Intn(sz.nodes)}
		req.Ops[opsPerReq-1] = server.Op{Op: "delete", Path: churnPath(i)}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		s.bodies[i] = body
	}
	return s, nil
}

// close stops the pump and the HTTP server and waits for both.
func (s *service) close() {
	s.srv.StopPump()
	s.client.CloseIdleConnections()
	s.ts.Close()
}

// post sends one batch, accounts for the response and returns the
// server's virtual clock from it. id < 0 marks a set-up request, which the
// handler middleware does not time.
func (s *service) post(body []byte, id, nOps int) (virtualS float64, err error) {
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+"/v1/ops", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	sp := int32(-1)
	if id >= 0 {
		sp = s.tr.begin("http.request", int64(id), -1)
		req.Header.Set(reqHeader, strconv.Itoa(id))
		req.Header.Set(reqHeader+"-Span", strconv.Itoa(int(sp)))
	}
	s.sentOps.Add(int64(nOps))
	resp, err := s.client.Do(req)
	if err != nil {
		s.non200.Add(1)
		s.tr.end(sp)
		return 0, err
	}
	defer resp.Body.Close()
	var or server.OpsResponse
	data, err := io.ReadAll(resp.Body)
	s.tr.end(sp)
	if err != nil {
		s.non200.Add(1)
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		s.non200.Add(1)
		return 0, fmt.Errorf("POST /v1/ops: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &or); err != nil {
		return 0, err
	}
	s.accOps.Add(int64(or.Accepted))
	s.failOps.Add(int64(or.Failed))
	return or.NowSeconds, nil
}

// getJSON calls a bodyless endpoint and decodes its JSON answer into v.
func (s *service) getJSON(method, path string, v any) error {
	req, err := http.NewRequest(method, s.ts.URL+path, nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// load drives one phase over connCount connections, sending request
// indexes first, first+1, ... in order. With rate > 0 it is an open loop:
// request i is due at i/rate after the phase start whatever the server
// does, for dur; with rate 0 it is a closed loop, each connection sending
// its next request when the previous one returns, until dur has passed or
// the bodies run out.
func (s *service) load(first int, rate float64, dur time.Duration) []reqRec {
	n := len(s.bodies) - first
	if rate > 0 {
		n = int(rate * dur.Seconds())
	}
	recs := make([]reqRec, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < connCount; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if rate == 0 && time.Since(start) >= dur {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				rec := &recs[i]
				rec.idx = first + i
				if rate > 0 {
					rec.due = time.Duration(float64(i) / rate * float64(time.Second))
					if wait := rec.due - time.Since(start); wait > 0 {
						time.Sleep(wait)
						rec.late = time.Since(start) - rec.due
					}
				} else {
					rec.due = time.Since(start)
				}
				rec.sent = time.Since(start)
				var err error
				rec.virtualS, err = s.post(s.bodies[first+i], first+i, opsPerReq)
				rec.ok = err == nil
				rec.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	// A closed loop stops on time, not on a count: drop the unsent tail.
	if sent := int(next.Load()); sent < n {
		n = sent
	}
	return recs[:n]
}

// latencies returns due → response in ms; a failed request misses any
// limit.
func latencies(recs []reqRec) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = float64(r.done-r.due) / 1e6
		if !r.ok {
			out[i] = 1e9
		}
	}
	return out
}

// serveOps: service mode on the real clock behind an in-process HTTP
// server. Only this workload exercises server, JSON, the mutex and
// CatchUp, and it is where a slow judge pass or a long engine event
// becomes client-visible tail latency.
func serveOps(p params, tr *tracer) *rep {
	sz := serveSizeFor(p.quick)
	r := newRep(p.traced)
	phase := func(share float64) time.Duration {
		return time.Duration(share * p.seconds * float64(time.Second))
	}
	warm := int(openRates[0] * sz.warmup.Seconds())
	nBodies := warm + int(maxClosedRate*phase(closedShare).Seconds())
	for i, rate := range openRates {
		nBodies += int(rate * phase(openShare[i]).Seconds())
	}

	// Set-up is built three times and timed each time; the last build is
	// the one the load runs against.
	var svc *service
	var setups []float64
	for i := 0; i < 3; i++ {
		if svc != nil {
			svc.close()
		}
		t0 := time.Now()
		var err error
		svc, err = buildService(p, sz, tr, nBodies)
		if err != nil {
			panic(fmt.Sprintf("serve-ops set-up: %v", err))
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer svc.close()
	r.setupS = median(setups)

	next := 0
	run := func(rate float64, dur time.Duration) []reqRec {
		recs := svc.load(next, rate, dur)
		next += len(recs)
		return recs
	}
	run(openRates[0], sz.warmup)

	stopCPU := cpuProfiled(r)
	var open [][]reqRec
	for i, rate := range openRates {
		open = append(open, run(rate, phase(openShare[i])))
	}
	m := startMeasure()
	closed := run(0, phase(closedShare))
	m.stop(r)
	stopCPU()

	// Drain, stop, and reconcile the server's books with the client's.
	var ctl server.ControlResponse
	var st server.StatusResponse
	err := svc.getJSON(http.MethodPost, "/v1/drain", &ctl)
	if err == nil {
		err = svc.getJSON(http.MethodPost, "/v1/stop", &ctl)
	}
	if err == nil {
		err = svc.getJSON(http.MethodGet, "/v1/status", &st)
	}
	sent, acc, failed := svc.sentOps.Load(), svc.accOps.Load(), svc.failOps.Load()
	r.checkf("control-plane", err == nil, "%v", err)
	r.checkf("all-200", svc.non200.Load() == 0, "%d requests were not answered 200", svc.non200.Load())
	r.checkf("ops-accounted", acc+failed == sent && failed == 0, "%d ops sent, %d accepted, %d failed", sent, acc, failed)
	r.checkf("status-matches-client", st.Ops.Accepted == acc && st.Files == sz.files+churnLag,
		"/v1/status ops.accepted %d files %d; client counted %d accepted, %d files", st.Ops.Accepted, st.Files, acc, sz.files+churnLag)

	r.lat = latencies(open[e2ePhase])
	r.ops = len(closed) * opsPerReq
	r.attempted = r.ops
	for _, recs := range open {
		r.attempted += len(recs) * opsPerReq
	}
	r.failed = int(failed) + int(svc.non200.Load())*opsPerReq
	// The harness sees no simulated read complete here, so the figure is
	// the MB the end-to-end phase asked to read over the virtual time its
	// responses span: it holds still while the pacer keeps virtual time on
	// the wall clock.
	e2e := open[e2ePhase]
	if span := e2e[len(e2e)-1].virtualS - e2e[0].virtualS; span > 0 {
		r.simMBps = float64(len(e2e)-1) * readsPerReq * fileMB / span
	}
	// No reading before set-up to subtract, unlike the simulation workloads:
	// there is one repetition a run, and an earlier run's service in the same
	// process stays reachable until its HTTP goroutines have wound down.
	r.heapMB = liveHeapMB(svc.sys, svc.bodies)

	// The pump has stopped (POST /v1/stop), so the system may be touched
	// directly from here on.
	sys := svc.sys
	r.digest, r.fired = sys.StateDigest(), sys.Engine().Fired()
	hm := sys.Metrics()
	r.checkf("reads-succeed", hm.ReadsFailed == 0, "%d simulated reads failed", hm.ReadsFailed)
	if p.traced {
		svc.ledger(r, open, closed)
	}
	ledgerCounts(r, sys)
	r.exact["core.judge_passes"] = float64(sys.Now() / sz.judgePeriod)
	judgeProbe(r, tr, sys, p)
	checkColdRestore(r, tr, sys, erms.NewSystem(sz.options(nil)))
	return r
}

// ledger fills the server rows of the traced run.
func (s *service) ledger(r *rep, open [][]reqRec, closed []reqRec) {
	all := append(append(append(append([]reqRec(nil), open[0]...), open[1]...), open[2]...), closed...)
	r.exact["server.requests"] = float64(len(all))
	r.exact["server.http_non200"] = float64(s.non200.Load())
	var transport, queue, late []float64
	for _, rec := range all {
		h := float64(s.handler[rec.idx].Load()) / 1e6
		transport = append(transport, float64(rec.done-rec.sent)/1e6-h)
	}
	for _, recs := range open {
		for _, rec := range recs {
			queue = append(queue, float64(rec.sent-rec.due)/1e6)
			late = append(late, float64(rec.late)/1e6)
		}
	}
	r.host["server.transport_ms_p50"] = median(transport)
	v, _, _ := percentile(queue, 99)
	r.host["server.queue_wait_ms_p99"] = v
	r.host["server.gen_late_ms_max"] = maxOf(late)
	maxOK := 0.0
	for i, recs := range open {
		l := latencies(recs)
		p50, _, _ := percentile(l, 50)
		p99, _, _ := percentile(l, 99)
		rate := int(openRates[i])
		if i != e2ePhase { // that phase's median is lat_p50_ms, end to end
			r.host[fmt.Sprintf("server.lat_p50_ms_r%d", rate)] = p50
		}
		r.host[fmt.Sprintf("server.lat_p99_ms_r%d", rate)] = p99
		// A rate is sustained when its p99 meets the 10 ms limit and the
		// last tenth of the phase is not waiting longer to be sent than
		// the limit either (no growing backlog).
		tail := recs[len(recs)*9/10:]
		var wait []float64
		for _, rec := range tail {
			wait = append(wait, float64(rec.sent-rec.due)/1e6)
		}
		if p99 <= 10 && mean(wait) <= 10 {
			maxOK = openRates[i]
		}
	}
	r.host["server.max_ok_rate"] = maxOK
}
