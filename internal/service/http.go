package service

import (
	"encoding/json"
	"errors"
	"net/http"

	"spcg/internal/obs"
)

// route is one served pattern. Handler registers exactly this table, and
// spcglint's metricdoc analyzer checks every pattern is documented in
// docs/API.md, so the two cannot drift.
type route struct {
	pattern string
	handler func(*Server) http.HandlerFunc
}

var routes = []route{
	{"POST /solve", func(s *Server) http.HandlerFunc { return s.handleSolve }},
	{"GET /jobs/{id}", func(s *Server) http.HandlerFunc { return s.handleJobGet }},
	{"POST /jobs/{id}/cancel", func(s *Server) http.HandlerFunc { return s.handleJobCancel }},
	{"GET /matrices", func(s *Server) http.HandlerFunc { return s.handleMatrices }},
	{"POST /tune", func(s *Server) http.HandlerFunc { return s.handleTune }},
	{"GET /tune/{matrix}", func(s *Server) http.HandlerFunc { return s.handleTuneGet }},
	{"GET /metrics", func(s *Server) http.HandlerFunc { return s.handleMetrics }},
	{"GET /healthz", func(s *Server) http.HandlerFunc { return s.handleHealthz }},
}

// Handler returns the service's HTTP mux; see docs/API.md for the surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range routes {
		mux.HandleFunc(r.pattern, r.handler(s))
	}
	return mux
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	j, err := s.Submit(req)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			// Load shedding: tell well-behaved clients when to come back.
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		case errors.Is(err, ErrShuttingDown):
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		default:
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		}
		return
	}
	if req.Async {
		writeJSON(w, http.StatusAccepted, j.status())
		return
	}
	// Sync path: wait for the job, but stop waiting if the client goes away
	// (the job itself keeps its own deadline). The reply may be written up
	// to writeMargin after that deadline, whatever the server's
	// WriteTimeout, so a timeout_ms longer than the default does not lose a
	// finished job's reply to a closed connection. A writer that cannot take
	// a deadline (a test's recorder) has no write timeout to outlive, so its
	// error is dropped.
	if deadline, ok := j.ctx.Deadline(); ok {
		_ = http.NewResponseController(w).SetWriteDeadline(deadline.Add(writeMargin))
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		writeJSON(w, http.StatusRequestTimeout, j.status())
		return
	}
	st := j.status()
	switch st.State {
	case JobDone:
		writeJSON(w, http.StatusOK, st)
	case JobCancelled, JobStagnated:
		writeJSON(w, http.StatusGatewayTimeout, st)
	default:
		writeJSON(w, http.StatusInternalServerError, st)
	}
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleMatrices(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"matrices": s.Matrices()})
}

// handleTune forces a full synchronous tuning run: seed, trials, persist,
// return the decision. The run blocks the request (trial probes are capped,
// so this is seconds, not a full solve campaign).
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Matrix string `json:"matrix"`
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	if req.Matrix == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "missing matrix"})
		return
	}
	d, err := s.TuneNow(req.Matrix)
	switch {
	case errors.Is(err, ErrShuttingDown):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case err != nil && d == nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	case err != nil:
		// Tuned but not persisted: the decision is still usable this process.
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusOK, d)
	}
}

// handleTuneGet serves the stored decision for a matrix, 404 when untuned.
func (s *Server) handleTuneGet(w http.ResponseWriter, r *http.Request) {
	d, err := s.TuneDecision(r.PathValue("matrix"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if d == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "matrix not tuned"})
		return
	}
	writeJSON(w, http.StatusOK, d)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, s.Metrics())
		return
	}
	w.Header().Set("Content-Type", obs.TextContentType)
	s.Registry().WritePrometheus(w)
}

// handleHealthz serves the health state machine: 200 while healthy or
// degraded (degraded still serves traffic — it means admissions were shed
// recently; clients read the shed rate from the body), 503 once draining.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	hs := s.HealthSnapshot()
	code := http.StatusOK
	if hs.Status == "draining" {
		w.Header().Set("Retry-After", "1")
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, hs)
}
