package service

import (
	"fmt"
	"sync"
	"time"

	"spcg/internal/precond"
	"spcg/internal/resilience"
	"spcg/internal/sparse"
	"spcg/internal/tune"
)

// tuneState is the server's autotuning layer: the persistent decision store
// plus in-flight background-tune deduplication.
type tuneState struct {
	store *tune.Store
	cfg   tune.Config

	mu       sync.Mutex
	inflight map[uint64]bool
}

// newTuneState wires the store from Config. A store that fails to open falls
// back to memory-only so the daemon still serves (the error is surfaced via
// spcgd_tune_store_errors_total); operators who want open failures to be
// fatal open the store themselves and pass Config.TuneStore.
func newTuneState(cfg Config, met *metrics) *tuneState {
	t := &tuneState{
		store:    cfg.TuneStore,
		inflight: map[uint64]bool{},
		cfg: tune.Config{
			ProbeIters: cfg.TuneProbeIters,
			Rounds:     cfg.TuneRounds,
		},
	}
	if t.store == nil {
		st, err := tune.OpenStore(cfg.TunePath, cfg.TuneEntries)
		if err != nil {
			met.tuneStoreErrors.Inc()
			st, _ = tune.OpenStore("", cfg.TuneEntries)
		}
		t.store = st
	}
	return t
}

// resolveAuto maps a method:"auto" request onto a concrete configuration.
// Warm path: the stored winner (or the best-ranked fallback whose circuit
// breaker currently admits requests). Cold path: the static seeder's best
// model-ranked guess serves this request immediately while trials run in the
// background; the tuned decision lands in the store for every later request.
func (s *Server) resolveAuto(a *sparse.CSR, fp uint64, req SolveRequest) (SolveRequest, string, *tune.Candidate) {
	s.met.tuneRequests.Inc()
	if d, ok := s.tuner.store.Get(fp); ok {
		s.met.tuneStoreHits.Inc()
		cands := make([]tune.Candidate, 0, len(d.Ranked))
		for _, rc := range d.Ranked {
			cands = append(cands, rc.Candidate)
		}
		c := s.pickAllowed(fp, cands)
		return applyCandidate(req, c), "store", &c
	}
	s.met.tuneStoreMisses.Inc()
	plan, err := tune.Seed(a, s.tuner.cfg)
	if err != nil {
		// Spectral probe failed (e.g. the operator is barely SPD): serve the
		// paper's safe floor rather than failing the request.
		c := tune.Candidate{Method: "pcg", Precond: "jacobi"}
		return applyCandidate(req, c), "fallback", &c
	}
	c := s.pickAllowed(fp, plan.Candidates)
	s.startBackgroundTune(a, fp, req.Matrix, plan)
	return applyCandidate(req, c), "seed", &c
}

// applyCandidate overwrites the request's solver configuration with the
// tuner's choice; everything else (tol, deadline, rhs, trace) stays the
// caller's.
func applyCandidate(req SolveRequest, c tune.Candidate) SolveRequest {
	req.Method = c.Method
	req.S = c.S
	req.Basis = c.Basis
	req.Precond = c.Precond
	return req
}

// pickAllowed returns the first candidate whose circuit breaker currently
// admits requests, using the non-mutating Peek so that ranking candidates
// never consumes a half-open probe slot. When every candidate is denied the
// ungated PCG floor is served.
func (s *Server) pickAllowed(fp uint64, cands []tune.Candidate) tune.Candidate {
	now := time.Now()
	for _, c := range cands {
		if s.breakers == nil {
			return c
		}
		if _, gated := degradeNext[c.Method]; !gated {
			return c // pcg, pcg3: never breaker-gated
		}
		if s.breakers.Peek(breakerKey(fp, c.Method, c.S), now) {
			return c
		}
	}
	return tune.Candidate{Method: "pcg", Precond: "jacobi"}
}

// startBackgroundTune launches the trial schedule for fp unless one is
// already running, one has finished since the caller missed the store, or
// the server is draining. A run Puts its decision before it clears inflight,
// both ahead of this lock, so a caller that finds neither is the first. The
// goroutine is tracked by s.bg so Shutdown waits for it; probes observe the
// base context and unwind promptly on a forced shutdown.
func (s *Server) startBackgroundTune(a *sparse.CSR, fp uint64, matrix string, plan *tune.Plan) {
	s.tuner.mu.Lock()
	if _, tuned := s.tuner.store.Get(fp); tuned || s.tuner.inflight[fp] {
		s.tuner.mu.Unlock()
		return
	}
	s.tuner.inflight[fp] = true
	s.tuner.mu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.clearInflight(fp)
		return
	}
	s.bg.Add(1)
	s.mu.Unlock()

	go func() {
		// Safe is the goroutine's first statement so the guard covers the
		// cleanup defers too; they run during the unwind before recover.
		if err := resilience.Safe(func() {
			defer s.bg.Done()
			defer s.clearInflight(fp)
			s.runTrials(a, fp, matrix, plan)
		}); err != nil {
			s.met.panics.Inc()
		}
	}()
}

func (s *Server) clearInflight(fp uint64) {
	s.tuner.mu.Lock()
	delete(s.tuner.inflight, fp)
	s.tuner.mu.Unlock()
}

// runTrials executes the successive-halving schedule, stamps the storage
// format the probes ran on and persists the decision. A decision that could
// not be persisted is still returned, with the store error.
func (s *Server) runTrials(a *sparse.CSR, fp uint64, matrix string, plan *tune.Plan) (*tune.Decision, error) {
	d, err := tune.Run(plan, &cacheRunner{s: s, a: a, fp: fp}, s.tuner.cfg)
	if err != nil {
		return nil, err // all candidates eliminated or shutdown mid-trials; nothing to store
	}
	d.Matrix = matrix
	s.stampFormat(a, fp, d)
	s.met.tuneRuns.Inc()
	if err := s.tuner.store.Put(d); err != nil {
		s.met.tuneStoreErrors.Inc()
		return d, fmt.Errorf("tuned, but persisting failed: %w", err)
	}
	return d, nil
}

// stampFormat records the storage format the trials actually ran on into the
// decision's candidates (they carried Format "" → the selector's pick), so
// a stored winner replays on exactly the storage it was measured with, even
// after a restart, when a re-probe on a noisy machine could decide
// differently.
func (s *Server) stampFormat(a *sparse.CSR, fp uint64, d *tune.Decision) {
	name := s.storage(a, fp, "").name
	if d.Winner.Format == "" {
		d.Winner.Format = name
	}
	for i := range d.Ranked {
		if d.Ranked[i].Candidate.Format == "" {
			d.Ranked[i].Candidate.Format = name
		}
	}
}

// TuneNow forces a full synchronous tuning run for a registered matrix (the
// POST /tune path) and returns the persisted decision.
func (s *Server) TuneNow(matrix string) (*tune.Decision, error) {
	if s.Draining() {
		return nil, ErrShuttingDown
	}
	if err := s.reg.sizeCheck(matrix); err != nil {
		return nil, err
	}
	a, fp, err := s.reg.get(matrix)
	if err != nil {
		return nil, err
	}
	plan, err := tune.Seed(a, s.tuner.cfg)
	if err != nil {
		return nil, err
	}
	return s.runTrials(a, fp, matrix, plan)
}

// TuneDecision returns the stored decision for a registered matrix, if any.
func (s *Server) TuneDecision(matrix string) (*tune.Decision, error) {
	if err := s.reg.sizeCheck(matrix); err != nil {
		return nil, err
	}
	_, fp, err := s.reg.get(matrix)
	if err != nil {
		return nil, err
	}
	d, ok := s.tuner.store.Get(fp)
	if !ok {
		return nil, nil
	}
	return d, nil
}

// cacheRunner is the service's tune.Runner: probes share the daemon's setup
// cache, so trial solves reuse (and warm) the same preconditioners and
// spectral estimates production requests hit.
type cacheRunner struct {
	s  *Server
	a  *sparse.CSR
	fp uint64
}

func (r *cacheRunner) Probe(c tune.Candidate, maxIters int, tol float64) tune.Outcome {
	r.s.met.tuneTrials.Inc()
	spec, err := precond.Parse(c.Precond)
	if err != nil {
		return tune.Outcome{Err: err.Error()}
	}
	// Probes run through the format engine so trial timings measure the
	// exact storage the served path will use; a candidate with a pinned
	// Format probes that format instead of the selector's pick.
	plan := r.s.storage(r.a, r.fp, c.Format)
	setup := r.s.cache.get(setupKey{fp: r.fp, prec: spec.Canonical()})
	solve, m, opts, err := c.Resolve(plan.mat, setup)
	if err != nil {
		return tune.Outcome{Err: err.Error()}
	}
	opts.Tol, opts.MaxIterations, opts.Cancel = tol, maxIters, r.s.baseCtx.Done()
	b, err := buildRHS("", plan.mat.Dim())
	if err != nil {
		return tune.Outcome{Err: err.Error()}
	}
	t0 := time.Now()
	_, stats, err := solve(plan.operator(), m, b, opts)
	o := tune.ProbeOutcome(stats, err, time.Since(t0))
	if o.Breakdown != "" {
		r.s.met.tuneBreakdowns.Inc()
	}
	return o
}
