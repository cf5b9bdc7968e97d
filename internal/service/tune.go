package service

import (
	"fmt"
	"sync"

	"spcg/internal/precond"
	"spcg/internal/resilience"
	"spcg/internal/solver"
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

// newTuneState wires the store from Config: the caller's, or a memory-only
// one.
func newTuneState(cfg Config) *tuneState {
	store := cfg.TuneStore
	if store == nil {
		store, _ = tune.OpenStore("", cfg.TuneEntries) // memory-only: cannot fail
	}
	return &tuneState{
		store:    store,
		inflight: map[uint64]bool{},
		cfg:      tune.Config{ProbeIters: cfg.TuneProbeIters},
	}
}

// resolveAuto maps a method:"auto" request onto a concrete configuration.
// Warm path: the stored winner. Cold path: the plan's PCG candidate
// serves this request immediately while trials run in the background; the
// tuned decision lands in the store for every later request. The seeder's
// top pick is not served untried: its cost model is uncalibrated and ranks
// monomial sPCG first, the configuration that breaks down (paper Table 2).
func (s *Server) resolveAuto(a *sparse.CSR, fp uint64, req SolveRequest) (SolveRequest, string, *tune.Candidate) {
	s.met.tuneRequests.Inc()
	if d, ok := s.tuner.store.Get(fp); ok {
		s.met.tuneStoreHits.Inc()
		c := d.Winner
		return applyCandidate(req, c), "store", &c
	}
	s.met.tuneStoreMisses.Inc()
	plan, err := tune.Seed(a, s.tuner.cfg)
	if err != nil {
		// Spectral probe failed (e.g. the operator is barely SPD): serve the
		// paper's safe floor rather than failing the request.
		c := pcgFloor
		return applyCandidate(req, c), "fallback", &c
	}
	c := pcgFloor
	for _, pc := range plan.Candidates {
		if pc.Method == "pcg" { // every plan keeps one
			c = pc
			break
		}
	}
	s.startBackgroundTune(a, fp, req.Matrix, plan)
	return applyCandidate(req, c), "seed", &c
}

// pcgFloor is the paper's safe configuration, served when seeding fails.
var pcgFloor = tune.Candidate{Method: "pcg", Precond: "jacobi"}

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

// runTrials executes the successive-halving schedule and persists the
// decision. A decision that could not be persisted is still returned, with
// the store error.
func (s *Server) runTrials(a *sparse.CSR, fp uint64, matrix string, plan *tune.Plan) (*tune.Decision, error) {
	d, err := tune.Run(plan, &cacheRunner{s: s, a: a, fp: fp}, s.tuner.cfg)
	if err != nil {
		return nil, err // all candidates eliminated or shutdown mid-trials; nothing to store
	}
	d.Matrix = matrix
	s.met.tuneRuns.Inc()
	if err := s.tuner.store.Put(d); err != nil {
		s.met.tuneStoreErrors.Inc()
		return d, fmt.Errorf("tuned, but persisting failed: %w", err)
	}
	return d, nil
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
	fp, err := s.reg.resolve(matrix)
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
	setup := r.s.setup(r.fp, spec)
	solve, m, opts, err := c.Resolve(r.a, setup)
	if err != nil {
		return tune.Outcome{Err: err.Error()}
	}
	opts.Tol, opts.MaxIterations, opts.Cancel = tol, maxIters, r.s.baseCtx.Done()
	b, err := buildRHS("", r.a.Dim())
	if err != nil {
		return tune.Outcome{Err: err.Error()}
	}
	o := tune.TimeProbe(r.a.NNZ(), func() (*solver.Stats, error) {
		_, stats, err := solve(r.a, m, b, opts)
		return stats, err
	})
	if o.Breakdown != "" {
		r.s.met.tuneBreakdowns.Inc()
	}
	return o
}
