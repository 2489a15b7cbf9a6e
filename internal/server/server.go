// Package server is the HTTP control plane for a running erms.System —
// the front door that turns the in-process reproduction into a
// deployable service. One Server wraps one System and exposes:
//
//	POST /v1/ops     workload ingestion: create/read/readrange/delete
//	                 batches, or a swimgen trace replayed from now
//	GET  /v1/status  cluster state (erms.Status, what `ermsctl status` prints)
//	GET  /metrics    the Prometheus-text metrics registry
//	GET  /v1/trace   Chrome trace_event JSON download (when tracing is on)
//	POST /v1/start   resume accepting ops after a drain
//	POST /v1/drain   stop accepting ops, keep serving state
//	POST /v1/stop    halt ERMS background activity and the pacer pump
//
// The engine stays the single scheduling authority: in service mode
// (erms.Options.Clock set) a pacer pump calls System.CatchUp so virtual
// time tracks the wall clock, and every handler catches up before it
// reads or mutates. All engine access is serialized by one mutex, so the
// System itself never needs to be goroutine-safe. Against a sim-clocked
// or pure-sim System the identical handlers run deterministically — how
// the handler tests and TestClockSeamEquivalence pin behaviour.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"erms"
	"erms/internal/workload"
)

// State is the control plane's lifecycle phase, reported in /v1/status
// and steered by /v1/start, /v1/drain, and /v1/stop.
type State string

// The three lifecycle phases: Running accepts ops, Draining rejects new
// ops while background work finishes, Stopped has halted ERMS activity.
const (
	Running  State = "running"
	Draining State = "draining"
	Stopped  State = "stopped"
)

// Server serializes all access to one erms.System and serves the /v1 API.
type Server struct {
	mu  sync.Mutex
	sys *erms.System
	mux *http.ServeMux

	state       State
	opsAccepted int64
	opsFailed   int64

	pumpOn   bool
	quit     chan struct{}
	pumpDone chan struct{}
	wake     chan struct{}
}

// New wraps sys in a control plane. The server starts Running; call
// StartPump to pace a service-mode system against its wall clock.
func New(sys *erms.System) *Server {
	s := &Server{sys: sys, state: Running, wake: make(chan struct{}, 1)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ops", s.handleOps)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/start", s.handleStart)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.HandleFunc("POST /v1/stop", s.handleStop)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler serving the control-plane API.
func (s *Server) Handler() http.Handler { return s.mux }

// StartPump launches the pacer: a goroutine that keeps virtual time
// caught up with the system's wall clock so heartbeats, judge windows,
// and repairs fire on schedule even when no requests arrive. It errors
// unless the system was built in service mode (erms.Options.Clock).
func (s *Server) StartPump() error {
	if s.sys.Clock() == nil {
		return errors.New("server: pump requires a service-mode system (erms.Options.Clock)")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pumpOn {
		return nil
	}
	s.pumpOn = true
	s.quit = make(chan struct{})
	s.pumpDone = make(chan struct{})
	go s.pump(s.quit, s.pumpDone)
	return nil
}

// StopPump halts the pacer goroutine and waits for it to exit, so the
// caller may touch the System directly afterwards (idempotent).
func (s *Server) StopPump() {
	s.mu.Lock()
	done := s.stopPumpLocked()
	s.mu.Unlock()
	if done != nil {
		<-done
	}
}

// stopPumpLocked signals the pump to quit and returns its done channel
// (nil if it was not running). The caller must release s.mu before
// waiting on it — the pump needs the mutex to finish its last iteration.
func (s *Server) stopPumpLocked() chan struct{} {
	if !s.pumpOn {
		return nil
	}
	s.pumpOn = false
	close(s.quit)
	return s.pumpDone
}

// pump is the pacer loop: catch virtual time up to the wall clock, then
// sleep until the next scheduled event is due (bounded so a long-idle
// calendar still re-checks periodically), a posted op wakes it, or the
// pump is stopped.
func (s *Server) pump(quit, done chan struct{}) {
	defer close(done)
	clk := s.sys.Clock()
	const maxIdle = 200 * time.Millisecond
	for {
		s.mu.Lock()
		now := s.sys.CatchUp()
		next, ok := s.sys.Engine().NextEventTime()
		s.mu.Unlock()
		wait := maxIdle
		if ok {
			if d := next - now; d < wait {
				wait = d
			}
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
		}
		select {
		case <-clk.After(wait):
		case <-s.wake:
		case <-quit:
			return
		}
	}
}

// poke nudges the pump so freshly scheduled work is paced immediately.
func (s *Server) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Op is one workload operation in a POST /v1/ops batch.
type Op struct {
	// Op selects the operation: "create", "read", "readrange", "delete".
	Op string `json:"op"`
	// Path is the file path the operation targets.
	Path string `json:"path"`
	// Client is the node the read is issued from (or the writer node for
	// create); defaults to node 0.
	Client int `json:"client,omitempty"`
	// SizeMB sizes a created file, in megabytes.
	SizeMB float64 `json:"size_mb,omitempty"`
	// Repl is the created file's replication factor (0 = cluster default).
	Repl int `json:"repl,omitempty"`
	// OffsetMB is a readrange's starting offset, in megabytes.
	OffsetMB float64 `json:"offset_mb,omitempty"`
	// LengthMB is a readrange's length in megabytes (0 = to end of file).
	LengthMB float64 `json:"length_mb,omitempty"`
}

// OpsRequest is the POST /v1/ops native batch body.
type OpsRequest struct {
	// Ops is applied in order, atomically validated first: a malformed
	// entry rejects the whole batch with 400 before anything runs.
	Ops []Op `json:"ops"`
}

// OpError reports one op that failed at apply time (for example a read
// of a path that does not exist). Validation errors never get this far.
type OpError struct {
	// Index is the op's position in the batch.
	Index int `json:"index"`
	// Error is the failure in text form.
	Error string `json:"error"`
}

// OpsResponse summarizes an accepted batch.
type OpsResponse struct {
	// Accepted counts ops applied (reads are applied when admitted; they
	// complete asynchronously as virtual time advances).
	Accepted int `json:"accepted"`
	// Failed counts ops that errored at apply time; Errors holds details.
	Failed int `json:"failed"`
	// NowSeconds is the virtual time after the batch was applied.
	NowSeconds float64 `json:"now_seconds"`
	// Errors details each failed op.
	Errors []OpError `json:"errors,omitempty"`
}

// TraceReplayResponse summarizes an accepted swimgen trace replay
// (POST /v1/ops?format=trace).
type TraceReplayResponse struct {
	// Files is the number of file creations scheduled.
	Files int `json:"files"`
	// Jobs is the number of reads scheduled.
	Jobs int `json:"jobs"`
	// HorizonSeconds is the trace's duration: the last scheduled
	// operation lands this far past NowSeconds.
	HorizonSeconds float64 `json:"horizon_seconds"`
	// NowSeconds is the virtual time the replay was anchored at.
	NowSeconds float64 `json:"now_seconds"`
}

// validateOps rejects a batch before any of it runs.
func validateOps(ops []Op) error {
	if len(ops) == 0 {
		return errors.New("empty batch: provide at least one op")
	}
	for i, op := range ops {
		switch op.Op {
		case "create":
			if op.SizeMB <= 0 {
				return fmt.Errorf("op %d: create needs size_mb > 0", i)
			}
		case "read", "delete":
		case "readrange":
			if op.OffsetMB < 0 || op.LengthMB < 0 {
				return fmt.Errorf("op %d: readrange offsets must be >= 0", i)
			}
		default:
			return fmt.Errorf("op %d: unknown op %q (want create|read|readrange|delete)", i, op.Op)
		}
		if op.Path == "" {
			return fmt.Errorf("op %d: missing path", i)
		}
		if op.Client < 0 {
			return fmt.Errorf("op %d: client must be >= 0", i)
		}
	}
	return nil
}

func (s *Server) handleOps(w http.ResponseWriter, r *http.Request) {
	if strings.EqualFold(r.URL.Query().Get("format"), "trace") {
		s.handleTraceReplay(w, r)
		return
	}
	var req OpsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding batch: %v", err)
		return
	}
	if err := validateOps(req.Ops); err != nil {
		httpError(w, http.StatusBadRequest, "invalid batch: %v", err)
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != Running {
		httpError(w, http.StatusServiceUnavailable, "not accepting ops: control plane is %s", s.state)
		return
	}
	s.sys.CatchUp()
	resp := OpsResponse{}
	for i, op := range req.Ops {
		var err error
		switch op.Op {
		case "create":
			err = s.sys.CreateFileOn(op.Path, op.SizeMB*erms.MB, op.Repl, op.Client)
		case "read":
			s.sys.Read(op.Client, op.Path, nil)
		case "readrange":
			s.sys.ReadRange(op.Client, op.Path, op.OffsetMB*erms.MB, op.LengthMB*erms.MB, nil)
		case "delete":
			err = s.sys.Delete(op.Path)
		}
		if err != nil {
			resp.Failed++
			resp.Errors = append(resp.Errors, OpError{Index: i, Error: err.Error()})
		} else {
			resp.Accepted++
		}
	}
	s.opsAccepted += int64(resp.Accepted)
	s.opsFailed += int64(resp.Failed)
	resp.NowSeconds = s.sys.Now().Seconds()
	s.poke()
	writeJSON(w, http.StatusOK, resp)
}

// handleTraceReplay ingests a swimgen trace (the workload.Trace JSON that
// `swimgen` writes) and hands it to the simulator's replayer
// (workload.ScheduleCreate / ScheduleRead) anchored at the current
// instant: file creations at now+CreateAt, jobs as whole-file or ranged
// reads at now+Submit. In service mode the pump then plays the trace out
// at real request rates.
func (s *Server) handleTraceReplay(w http.ResponseWriter, r *http.Request) {
	tr, err := workload.ReadJSON(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "decoding swimgen trace: %v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != Running {
		httpError(w, http.StatusServiceUnavailable, "not accepting ops: control plane is %s", s.state)
		return
	}
	now := s.sys.CatchUp()
	engine, router := s.sys.Engine(), s.sys.Router()
	for i, f := range tr.Files {
		workload.ScheduleCreate(engine, s.sys.Shard(router.Shard(f.Path)).HDFS(), now, i, f)
	}
	for _, j := range tr.Jobs {
		workload.ScheduleRead(engine, s.sys.Shard(router.Shard(j.File)).HDFS(), now, j, nil)
	}
	s.opsAccepted += int64(len(tr.Files) + len(tr.Jobs))
	s.poke()
	writeJSON(w, http.StatusOK, TraceReplayResponse{
		Files:          len(tr.Files),
		Jobs:           len(tr.Jobs),
		HorizonSeconds: tr.Duration.Seconds(),
		NowSeconds:     now.Seconds(),
	})
}

// OpsStatus counts control-plane ingestion since boot.
type OpsStatus struct {
	// Accepted / Failed mirror OpsResponse accounting, summed over every
	// batch and trace replay.
	Accepted int64 `json:"accepted"`
	Failed   int64 `json:"failed"`
}

// StatusResponse is the GET /v1/status body: the system's status model
// (erms.Status — what `ermsctl status` prints as text) between the two
// things only the control plane knows.
type StatusResponse struct {
	// State is the control plane's lifecycle phase.
	State State `json:"state"`
	erms.Status
	// Ops counts ingestion through this control plane.
	Ops OpsStatus `json:"ops"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sys.CatchUp()
	resp := StatusResponse{
		State:  s.state,
		Status: s.sys.Status(),
		Ops:    OpsStatus{Accepted: s.opsAccepted, Failed: s.opsFailed},
	}
	if len(resp.Shards) == 1 {
		resp.Shards = nil // the header already describes the only namenode
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sys.CatchUp()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.sys.Registry().WritePrometheus(w)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sys.CatchUp()
	tr := s.sys.Tracer()
	if tr == nil {
		httpError(w, http.StatusNotFound, "tracing is disabled: rebuild the system with EnableTrace (ermsd -trace)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="erms-trace.json"`)
	_ = tr.WriteChromeTrace(w)
}

// ControlResponse acknowledges a lifecycle transition.
type ControlResponse struct {
	// State is the phase after the transition.
	State State `json:"state"`
	// PendingEvents is the live calendar size at the transition — for a
	// drain, the backlog still to play out.
	PendingEvents int `json:"pending_events"`
}

func (s *Server) handleStart(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == Stopped {
		httpError(w, http.StatusConflict, "cannot start: ERMS background activity was stopped; restart the process")
		return
	}
	s.state = Running
	s.poke()
	writeJSON(w, http.StatusOK, ControlResponse{State: s.state, PendingEvents: s.sys.Engine().Pending()})
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == Running {
		s.state = Draining
	}
	s.sys.CatchUp()
	writeJSON(w, http.StatusOK, ControlResponse{State: s.state, PendingEvents: s.sys.Engine().Pending()})
}

func (s *Server) handleStop(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	var done chan struct{}
	if s.state != Stopped {
		s.sys.CatchUp()
		s.sys.Stop()
		s.state = Stopped
		done = s.stopPumpLocked()
	}
	resp := ControlResponse{State: s.state, PendingEvents: s.sys.Engine().Pending()}
	s.mu.Unlock()
	if done != nil {
		<-done
	}
	writeJSON(w, http.StatusOK, resp)
}

// errorBody is the JSON error envelope every non-2xx response uses.
type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}
