package service

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// TracesResponse is the GET /debug/traces payload: recent finished
// traces, newest first, filtered to those at least min_ms slow.
type TracesResponse struct {
	Traces []obs.TraceView `json:"traces"`
}

// DebugHandler returns the diagnostics surface cmd/serve mounts on its
// separate -debug-addr listener: GET /debug/traces (recent slow traces
// from the tracer's ring, ?min_ms= and ?endpoint= filters),
// GET /debug/traces/{id} (one trace by id, regardless of speed), plus
// the standard net/http/pprof endpoints under /debug/pprof/. It is a
// distinct handler — not part of ServeHTTP — so production traffic and
// the profiling surface never share a listener.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/traces", s.handleDebugTraces)
	mux.HandleFunc("/debug/traces/", s.handleDebugTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleDebugTraces serves the ring of recent finished traces. The
// min_ms query omits traces faster than its threshold (default 0 —
// keep everything) and endpoint narrows to one operation, e.g.
// ?endpoint=POST+/v1/attack. With tracing disabled the list is empty
// rather than an error, so probes stay cheap.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	var min time.Duration
	if q := r.URL.Query().Get("min_ms"); q != "" {
		ms, err := strconv.ParseFloat(q, 64)
		if err != nil || ms < 0 {
			writeErr(w, http.StatusBadRequest, "min_ms must be a non-negative number (got %q)", q)
			return
		}
		min = time.Duration(ms * float64(time.Millisecond))
	}
	views := s.tracer.Ring().Snapshot(min, r.URL.Query().Get("endpoint"))
	if views == nil {
		views = []obs.TraceView{}
	}
	writeJSON(w, http.StatusOK, TracesResponse{Traces: views})
}

// handleDebugTrace serves one retained trace by id (the id the
// X-Request-Id response header and the request log carry), however
// fast it was. 404s when the id has rotated out of the ring.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
	if id == "" || strings.Contains(id, "/") {
		writeErr(w, http.StatusNotFound, "trace id required: GET /debug/traces/{id}")
		return
	}
	v, ok := s.tracer.Ring().Find(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "trace %q not retained (rotated out, or tracing disabled)", id)
		return
	}
	writeJSON(w, http.StatusOK, v)
}
