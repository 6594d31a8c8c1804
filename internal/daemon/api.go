package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// maxBodyBytes bounds request bodies (edits carry whole files).
const maxBodyBytes = 8 << 20

// Handler returns the daemon's HTTP API:
//
//	GET    /healthz                      liveness + uptime (503 while draining)
//	GET    /metrics                      metrics snapshot (?format=text)
//	GET    /trace                        Chrome trace of completed requests
//	GET    /debug/dash                   live HTML dashboard (auto-refresh)
//	GET    /debug/flight                 flight recorder (?last=N lanes)
//	POST   /v1/sessions                  create session {name,subject,mode}
//	GET    /v1/sessions                  list sessions
//	GET    /v1/sessions/{name}           session info
//	DELETE /v1/sessions/{name}           close session
//	POST   /v1/sessions/{name}/files     apply an edit {path,content}
//	GET    /v1/sessions/{name}/files?path=P   read a file from the tree
//	POST   /v1/sessions/{name}/cycle     one compile-link-run iteration
//	POST   /v1/sessions/{name}/substitute?include_content=1
//	POST   /v1/sessions/{name}/check     run the safety passes {passes}
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /trace", s.handleTrace)
	mux.HandleFunc("GET /debug/dash", s.handleDash)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	mux.HandleFunc("POST /v1/sessions", s.instrument("session.create", s.handleSessionCreate))
	mux.HandleFunc("GET /v1/sessions", s.instrument("session.list", s.handleSessionList))
	mux.HandleFunc("GET /v1/sessions/{name}", s.instrument("session.get", s.handleSessionGet))
	mux.HandleFunc("DELETE /v1/sessions/{name}", s.instrument("session.close", s.handleSessionClose))
	mux.HandleFunc("POST /v1/sessions/{name}/files", s.instrument("edit", s.pooled(s.handleEdit)))
	mux.HandleFunc("GET /v1/sessions/{name}/files", s.instrument("file.read", s.handleFileRead))
	mux.HandleFunc("POST /v1/sessions/{name}/cycle", s.instrument("cycle", s.pooled(s.handleCycle)))
	mux.HandleFunc("POST /v1/sessions/{name}/substitute", s.instrument("substitute", s.pooled(s.handleSubstitute)))
	mux.HandleFunc("POST /v1/sessions/{name}/check", s.instrument("check", s.pooled(s.handleCheck)))
	return mux
}

// apiError is the JSON error envelope; Hint carries usage guidance.
type apiError struct {
	Error string `json:"error"`
	Hint  string `json:"hint,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// handlerFunc is an instrumented handler: it receives the per-request
// obs handle and returns the response status for the metrics layer.
type handlerFunc func(w http.ResponseWriter, r *http.Request, o *obs.Obs) int

// instrument wraps a handler with the daemon's RED metrics and a
// per-request trace span on a dedicated sealed lane: requests counted
// per route, latency histograms per route, errors counted, in-flight
// gauged.
func (s *Server) instrument(route string, h handlerFunc) http.HandlerFunc {
	requests := s.o.Counter("daemon.requests")
	perRoute := s.o.Counter("daemon.requests." + route)
	errCount := s.o.Counter("daemon.errors")
	gauge := s.o.Gauge("daemon.inflight")
	return func(w http.ResponseWriter, r *http.Request) {
		id := s.reqIDs.Add(1)
		requests.Add(1)
		perRoute.Add(1)
		gauge.Set(s.inflight.Add(1))
		start := time.Now()

		w.Header().Set("X-Request-ID", fmt.Sprintf("%d", id))
		ro := s.o.Lane(fmt.Sprintf("req %d", id))
		sp := ro.Start("request")
		sp.SetStr("route", route)
		sp.SetStr("method", r.Method)
		session := r.PathValue("name")
		if session != "" {
			sp.SetStr("session", session)
		}

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		status := h(w, r.WithContext(ctx), sp.Obs())
		cancel()

		sp.SetInt("status", int64(status))
		d := time.Since(start)
		// The request span is the histogram exemplar: a slow bucket in
		// /metrics names the span whose lane /debug/flight can export.
		s.o.ObserveMsEx("daemon.request_ms", d, sp)
		s.o.ObserveMsEx("daemon.request_ms."+route, d, sp)
		sp.End()
		ro.SealLane()
		gauge.Set(s.inflight.Add(-1))
		s.recent.add(sample{route: route, dur: d, status: status})
		if status >= 400 {
			errCount.Add(1)
		}
		logRequest(s.log, id, route, session, status, d)
	}
}

// logRequest emits the structured per-request line: Info for success,
// Warn for client errors, Error for server errors.
func logRequest(log *slog.Logger, id uint64, route, session string, status int, d time.Duration) {
	attrs := []any{
		"req_id", id, "route", route, "status", status,
		"dur_ms", float64(d.Microseconds()) / 1000,
	}
	if session != "" {
		attrs = append(attrs, "session", session)
	}
	switch {
	case status >= 500:
		log.Error("request", attrs...)
	case status >= 400:
		log.Warn("request", attrs...)
	default:
		log.Info("request", attrs...)
	}
}

// pooled routes a handler through the bounded worker pool: the request
// holds one slot for its whole execution or is rejected with 503 after
// the queue timeout.
func (s *Server) pooled(h handlerFunc) handlerFunc {
	return func(w http.ResponseWriter, r *http.Request, o *obs.Obs) int {
		if err := s.acquireSlot(r.Context()); err != nil {
			if errors.Is(err, errQueueTimeout) {
				s.o.Counter("daemon.rejected").Add(1)
				writeError(w, http.StatusServiceUnavailable, "%v", err)
				return http.StatusServiceUnavailable
			}
			writeError(w, http.StatusGatewayTimeout, "%v", err)
			return http.StatusGatewayTimeout
		}
		defer s.releaseSlot()
		return h(w, r, o)
	}
}

// session resolves the {name} path segment, writing the error response
// itself when absent.
func (s *Server) session(w http.ResponseWriter, r *http.Request) *Session {
	name := r.PathValue("name")
	sess := s.Session(name)
	if sess == nil {
		writeJSON(w, http.StatusNotFound, apiError{
			Error: fmt.Sprintf("no such session %q", name),
			Hint:  "create it first: POST /v1/sessions {\"name\":..., \"subject\":..., \"mode\":...}",
		})
	}
	return sess
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return false
	}
	if len(body) == 0 {
		return true // empty body = all defaults
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, "decode body: %v", err)
		return false
	}
	return true
}

// --------------------------------------------------------------- routes

type healthResponse struct {
	Status    string `json:"status"`
	Draining  bool   `json:"draining"`
	UptimeSec int64  `json:"uptime_sec"`
	Sessions  int    `json:"sessions"`
	Workers   int    `json:"workers"`
	// Node is the daemon's farm identity; empty outside a farm.
	Node string `json:"node,omitempty"`
	// RemoteCache is "ok" or "unreachable: <err>" when the node has a
	// remote cache tier (Config.RemoteProbe); absent otherwise. The
	// router and dashboard read it for fleet health; an unreachable L2
	// does not fail the node — builds degrade to local-only.
	RemoteCache string `json:"remote_cache,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.sessions)
	s.mu.RUnlock()
	resp := healthResponse{
		Status:    "ok",
		Draining:  s.draining.Load(),
		UptimeSec: int64(time.Since(s.started).Seconds()),
		Sessions:  n,
		Workers:   s.cfg.Workers,
		Node:      s.cfg.NodeID,
	}
	if s.cfg.RemoteProbe != nil {
		if err := s.cfg.RemoteProbe(); err != nil {
			resp.RemoteCache = "unreachable: " + err.Error()
		} else {
			resp.RemoteCache = "ok"
		}
	}
	status := http.StatusOK
	if resp.Draining {
		// 503 tells load balancers to stop routing here; the body still
		// reports the drain so clients can distinguish it from overload.
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		writeError(w, http.StatusNotFound, "metrics registry disabled")
		return
	}
	snap := s.reg.Snapshot()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, snap.String())
		return
	}
	blob, err := snap.JSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(blob, '\n'))
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeError(w, http.StatusNotFound, "tracing disabled")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.tracer.ExportSealed(w); err != nil {
		// Headers are gone; nothing more to do than drop the conn.
		return
	}
}

// handleFlight dumps the flight recorder — the bounded ring of recently
// sealed request lanes — as a Chrome trace. ?last=N restricts to the N
// most recently sealed lanes ("what just happened?" without downloading
// the whole retention window).
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeError(w, http.StatusNotFound, "tracing disabled")
		return
	}
	last := 0
	if v := r.URL.Query().Get("last"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "last must be a non-negative integer, got %q", v)
			return
		}
		last = n
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.tracer.ExportSealedLast(w, last); err != nil {
		return
	}
}

type sessionRequest struct {
	Name    string `json:"name"`
	Subject string `json:"subject"`
	Mode    string `json:"mode"`
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request, o *obs.Obs) int {
	var req sessionRequest
	if !decodeBody(w, r, &req) {
		return http.StatusBadRequest
	}
	sess, err := s.CreateSession(req.Name, req.Subject, req.Mode)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errSessionExists) {
			status = http.StatusConflict
		}
		writeJSON(w, status, apiError{
			Error: err.Error(),
			Hint:  "subjects come from the corpus (e.g. 02, team_policy, drawing); modes: default, pch, yalla, yalla+pch, yalla+lto",
		})
		return status
	}
	writeJSON(w, http.StatusCreated, sess.Info())
	return http.StatusCreated
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request, o *obs.Obs) int {
	writeJSON(w, http.StatusOK, struct {
		Sessions []Info `json:"sessions"`
	}{s.Sessions()})
	return http.StatusOK
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request, o *obs.Obs) int {
	sess := s.session(w, r)
	if sess == nil {
		return http.StatusNotFound
	}
	writeJSON(w, http.StatusOK, sess.Info())
	return http.StatusOK
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request, o *obs.Obs) int {
	if !s.CloseSession(r.PathValue("name")) {
		writeError(w, http.StatusNotFound, "no such session %q", r.PathValue("name"))
		return http.StatusNotFound
	}
	w.WriteHeader(http.StatusNoContent)
	return http.StatusNoContent
}

type editRequest struct {
	Path    string `json:"path"`
	Content string `json:"content"`
}

func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request, o *obs.Obs) int {
	sess := s.session(w, r)
	if sess == nil {
		return http.StatusNotFound
	}
	var req editRequest
	if !decodeBody(w, r, &req) {
		return http.StatusBadRequest
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, "path is required")
		return http.StatusBadRequest
	}
	res := sess.Edit(req.Path, req.Content)
	s.o.Counter("daemon.edits").Add(1)
	if res.Invalidated {
		s.o.Counter("daemon.invalidations").Add(1)
	}
	if res.EarlyCutoff {
		s.o.Counter("inval.early_cutoff_hits").Add(1)
	}
	if res.Action == "recompile-wrappers" {
		s.o.Counter("inval.wrapper_recompiles_scheduled").Add(1)
	}
	if res.Structural && res.Action != "" {
		s.o.Counter("inval.decls_diffed").Add(uint64(res.DeclsDiffed))
		s.o.Observe("inval.decls_diffed_per_edit", float64(res.DeclsDiffed))
		s.o.Observe("inval.diff_ms", res.DiffMs)
	}
	writeJSON(w, http.StatusOK, res)
	return http.StatusOK
}

type fileResponse struct {
	Path    string `json:"path"`
	Content string `json:"content"`
}

func (s *Server) handleFileRead(w http.ResponseWriter, r *http.Request, o *obs.Obs) int {
	sess := s.session(w, r)
	if sess == nil {
		return http.StatusNotFound
	}
	path := r.URL.Query().Get("path")
	if path == "" {
		writeError(w, http.StatusBadRequest, "query parameter path is required")
		return http.StatusBadRequest
	}
	content, err := sess.ReadFile(path)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return http.StatusNotFound
	}
	writeJSON(w, http.StatusOK, fileResponse{Path: path, Content: content})
	return http.StatusOK
}

type cycleRequest struct {
	// NewSymbol models the §4.2 edit that starts using a header symbol
	// the sources did not use before.
	NewSymbol string `json:"new_symbol"`
}

func (s *Server) handleCycle(w http.ResponseWriter, r *http.Request, o *obs.Obs) int {
	sess := s.session(w, r)
	if sess == nil {
		return http.StatusNotFound
	}
	var req cycleRequest
	if !decodeBody(w, r, &req) {
		return http.StatusBadRequest
	}
	res, err := sess.Cycle(r.Context(), o, req.NewSymbol)
	if err != nil {
		return s.computeError(w, r, err)
	}
	if res.Prepared {
		s.o.Counter("daemon.cycles.cold").Add(1)
	} else {
		s.o.Counter("daemon.cycles.warm").Add(1)
	}
	writeJSON(w, http.StatusOK, res)
	return http.StatusOK
}

func (s *Server) handleSubstitute(w http.ResponseWriter, r *http.Request, o *obs.Obs) int {
	sess := s.session(w, r)
	if sess == nil {
		return http.StatusNotFound
	}
	res, err := sess.Substitute(r.Context(), o)
	if err != nil {
		return s.computeError(w, r, err)
	}
	if r.URL.Query().Get("include_content") == "" {
		res.Files = nil
	}
	writeJSON(w, http.StatusOK, res)
	return http.StatusOK
}

type checkRequest struct {
	// Passes restricts which check passes run (empty = all).
	Passes []string `json:"passes"`
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request, o *obs.Obs) int {
	sess := s.session(w, r)
	if sess == nil {
		return http.StatusNotFound
	}
	var req checkRequest
	if !decodeBody(w, r, &req) {
		return http.StatusBadRequest
	}
	res, err := sess.Check(r.Context(), o, req.Passes)
	if err != nil {
		return s.computeError(w, r, err)
	}
	s.o.Counter("daemon.checks").Add(1)
	s.o.Counter("daemon.check.findings").Add(uint64(len(res.Diagnostics)))
	writeJSON(w, http.StatusOK, res)
	return http.StatusOK
}

// computeError maps a failed compute request to a status: deadline →
// 504, anything else → 500.
func (s *Server) computeError(w http.ResponseWriter, r *http.Request, err error) int {
	status := http.StatusInternalServerError
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		status = http.StatusGatewayTimeout
	}
	writeError(w, status, "%v", err)
	return status
}
