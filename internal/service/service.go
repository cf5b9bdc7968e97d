// Package service implements the spcgd solve daemon: a concurrent,
// stdlib-only JSON façade over the solver stack. It adds three serving-side
// capabilities on top of the numerical code:
//
//   - a bounded worker pool with admission control (queue full → immediate
//     rejection rather than unbounded buffering);
//   - a setup cache keyed by (matrix fingerprint, preconditioner spec) that
//     reuses preconditioner construction across requests — the expensive
//     "excluded from timings" setup work of the paper, amortized across a
//     serving workload. The Lanczos spectral estimates are registry state,
//     kept per matrix for the daemon's lifetime and shared by every cached
//     set-up on that matrix;
//   - method:"auto", which serves a stored tuning decision, or PCG while
//     the tuner's trials run in the background (docs/TUNING.md).
//
// Every admitted request is one job on the queue and one solve of its own
// right-hand side, as in the paper's methods.
//
// Cancellation is cooperative end to end: every job carries a context whose
// Done channel is plumbed into Options.Cancel, so deadlines and explicit
// /jobs/{id}/cancel calls stop the iteration loop and still return partial
// Stats.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"spcg/internal/basis"
	"spcg/internal/obs"
	"spcg/internal/precond"
	"spcg/internal/resilience"
	"spcg/internal/solver"
	"spcg/internal/tune"
)

// Config sizes the server. The zero value gets sensible defaults.
type Config struct {
	// Workers is the solver pool size (default: NumCPU, max 8).
	Workers int
	// QueueDepth bounds admitted-but-unfinished jobs; submissions beyond it
	// are rejected with ErrQueueFull (default 64).
	QueueDepth int
	// CacheSize is the setup-cache capacity in (matrix, preconditioner)
	// entries (default 32). It bounds the built matrices too: a matrix stays
	// built only while a set-up on it is cached.
	CacheSize int
	// Scale divides the suite problem sizes, as in `spcgbench -scale`
	// (default 100: small enough for interactive serving).
	Scale int
	// Chaos, when non-nil, turns on service-level fault injection (injected
	// panics, solver soft errors) for chaos testing.
	Chaos *ChaosConfig
	// TuneEntries bounds retained tuning decisions, LRU-evicted (default 128).
	TuneEntries int
	// TuneStore is the autotuning decision store; cmd/spcgd opens it from
	// -tune-store. Nil keeps decisions in memory only: they die with the
	// process.
	TuneStore *tune.Store

	// tuneProbeIters, when set, replaces tune.Config's first-round probe
	// cap; the package's tests raise or lower it.
	tuneProbeIters int
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.NumCPU()
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.CacheSize < 1 {
		c.CacheSize = 32
	}
	if c.Scale < 1 {
		c.Scale = 100
	}
	if c.TuneEntries < 1 {
		c.TuneEntries = 128
	}
	return c
}

// defaultTimeout bounds each job's wall time when the request does not set
// timeout_ms.
const defaultTimeout = 120 * time.Second

// writeMargin is how long a synchronous solve's reply may take to write
// after its job's deadline. WriteTimeout and handleSolve's per-request write
// deadline both add it.
const writeMargin = 30 * time.Second

// WriteTimeout is the server write timeout for the daemon's replies: a
// synchronous solve at defaultTimeout, plus the margin. A synchronous solve
// whose own timeout_ms is longer gets a later write deadline of its own.
const WriteTimeout = defaultTimeout + writeMargin

// Request limits: a single hostile request must not be able to pin a worker
// forever or allocate unbounded memory.
const (
	// maxRequestIters bounds SolveRequest.MaxIters: iteration history and
	// per-iteration work scale with it.
	maxRequestIters = 1_000_000
	// maxRequestS bounds SolveRequest.S: basis blocks allocate (s+1) length-n
	// vectors.
	maxRequestS = 64
	// maxRequestTimeoutMS bounds SolveRequest.TimeoutMS to one day. A job
	// holds its queue slot until its deadline, and a larger count would
	// overflow time.Duration's int64 nanoseconds (past ≈ 9.2·10¹² ms) into a
	// deadline that is tiny, or negative and so no deadline at all.
	maxRequestTimeoutMS = 24 * 60 * 60 * 1000
)

// ErrQueueFull is returned by Submit when admission control rejects a job.
var ErrQueueFull = fmt.Errorf("service: queue full")

// ErrShuttingDown is returned by Submit after Shutdown has begun.
var ErrShuttingDown = fmt.Errorf("service: shutting down")

// ErrLimitExceeded is returned by Submit when a request exceeds the resource
// limits (maxRequestIters, maxRequestS, maxRequestTimeoutMS, maxMatrixDim);
// the HTTP layer maps it to 400.
var ErrLimitExceeded = fmt.Errorf("service: request exceeds configured limits")

// ErrBadBasis is returned by Submit when SolveRequest.Basis names an unknown
// polynomial basis; the HTTP layer maps it to 400.
var ErrBadBasis = fmt.Errorf("service: unknown basis")

// Server is the solve service. Create with New, serve via Handler, stop with
// Shutdown.
type Server struct {
	cfg   Config
	reg   *registry
	cache *setupCache
	jobs  *jobStore
	met   *metrics
	start time.Time
	shed  *resilience.RateWindow
	chaos *chaosState // nil unless Config.Chaos was set

	tuner *tuneState

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue chan *job
	wg    sync.WaitGroup
	// bg tracks background tuning goroutines; Shutdown waits for them after
	// the worker pool drains.
	bg sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// New starts a server's worker pool and returns it ready to accept jobs.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	cache := newLRU[setupKey, tune.Setup](cfg.CacheSize)
	reg := newRegistry(cfg.Scale)
	s := &Server{
		cfg:        cfg,
		reg:        reg,
		cache:      cache,
		jobs:       newJobStore(),
		met:        newMetrics(start, cache, reg),
		start:      start,
		shed:       resilience.NewRateWindow(30),
		baseCtx:    ctx,
		baseCancel: cancel,
		// Admission caps outstanding jobs at QueueDepth, so Submit's send
		// never blocks.
		queue: make(chan *job, cfg.QueueDepth),
	}
	if cfg.Chaos != nil {
		s.chaos = newChaosState(*cfg.Chaos)
	}
	s.tuner = newTuneState(cfg)
	s.met.bindResilience(s)
	s.met.bindTune(s)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			// runGuarded already isolates per-solve panics; this outer guard
			// covers the queue loop itself so a bug there can never kill a
			// worker silently. worker's own defer releases the WaitGroup
			// during the unwind before Safe recovers.
			if err := resilience.Safe(s.worker); err != nil {
				s.met.panics.Inc()
			}
		}()
	}
	return s
}

// validate rejects malformed requests before admission so clients get a 400
// rather than a failed job.
func (s *Server) validate(req *SolveRequest) error {
	req.Method = strings.ToLower(strings.TrimSpace(req.Method))
	if req.Method == "" {
		req.Method = "pcg"
	}
	if _, ok := solver.ByName(req.Method); !ok && req.Method != "auto" {
		return fmt.Errorf("unknown method %q", req.Method)
	}
	if strings.TrimSpace(req.Matrix) == "" {
		return fmt.Errorf("missing matrix")
	}
	if _, err := precond.Parse(req.Precond); err != nil {
		return err
	}
	req.Basis = strings.ToLower(strings.TrimSpace(req.Basis))
	if req.Basis != "" {
		if _, err := basis.ParseType(req.Basis); err != nil {
			return fmt.Errorf("%w %q (want monomial, newton or chebyshev)", ErrBadBasis, req.Basis)
		}
	}
	if req.Tol < 0 || req.MaxIters < 0 || req.S < 0 || req.TimeoutMS < 0 {
		return fmt.Errorf("negative tol/max_iters/s/timeout_ms")
	}
	// Resource limits. Matrix dimensions are bounded here too, before the
	// generator would build anything.
	if req.MaxIters > maxRequestIters {
		return fmt.Errorf("%w: max_iters %d > limit %d", ErrLimitExceeded, req.MaxIters, maxRequestIters)
	}
	if req.S > maxRequestS {
		return fmt.Errorf("%w: s %d > limit %d", ErrLimitExceeded, req.S, maxRequestS)
	}
	if req.TimeoutMS > maxRequestTimeoutMS {
		return fmt.Errorf("%w: timeout_ms %d > limit %d", ErrLimitExceeded, req.TimeoutMS, maxRequestTimeoutMS)
	}
	if err := s.reg.sizeCheck(req.Matrix); err != nil {
		return err
	}
	if _, err := buildRHS(req.RHS, 1); err != nil {
		return err
	}
	return nil
}

// Submit validates and admits one request, returning the queued job. The
// caller decides whether to wait on job completion (sync) or return the id
// (async).
func (s *Server) Submit(req SolveRequest) (*job, error) {
	if err := s.validate(&req); err != nil {
		return nil, err
	}
	timeout := defaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.met.rejected.Inc()
		return nil, ErrShuttingDown
	}
	// Idempotent resubmission: a request_id that is already admitted (or
	// finished and still retained) returns its existing job instead of
	// running the solve twice. Checked before the queue-full gate so a
	// gateway retry of an accepted request is never shed.
	if req.RequestID != "" {
		if j := s.jobs.getByRequestID(req.RequestID); j != nil {
			s.mu.Unlock()
			s.met.dedupHits.Inc()
			return j, nil
		}
	}
	// Increments happen only here, under mu, so the gate and the count it
	// guards cannot interleave with another admission.
	if s.met.queued.Load() >= int64(s.cfg.QueueDepth) {
		s.mu.Unlock()
		s.met.rejected.Inc()
		s.shed.Add(1)
		return nil, ErrQueueFull
	}
	s.met.queued.Add(1)
	j := s.jobs.newJob(req, s.baseCtx, timeout)
	s.queue <- j
	s.mu.Unlock()

	s.met.requests.Inc()
	return j, nil
}

// Job returns the job with the given id, or nil.
func (s *Server) Job(id string) *job { return s.jobs.get(id) }

// Matrices lists the registered matrix names.
func (s *Server) Matrices() []string { return s.reg.names() }

// Metrics returns the current serving counters as the structured JSON view.
func (s *Server) Metrics() MetricsSnapshot { return s.met.snapshot(s.start, s.cache, s.reg) }

// Registry exposes the server's metric registry (Prometheus exposition and
// the docs-coverage check read it).
func (s *Server) Registry() *obs.Registry { return s.met.reg }

// Draining reports whether Shutdown has begun (used by /healthz).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Health evaluates the serving state machine: draining once Shutdown has
// begun, degraded while admissions were shed within the rate window,
// healthy otherwise.
func (s *Server) Health() resilience.Health {
	if s.Draining() {
		return resilience.Draining
	}
	if s.shed.Rate() > 0 {
		return resilience.Degraded
	}
	return resilience.Healthy
}

// HealthStatus is the JSON document served at /healthz.
type HealthStatus struct {
	Status string `json:"status"` // healthy | degraded | draining
	// ShedRate is admissions rejected per second over the last 30s.
	ShedRate float64 `json:"shed_rate"`
	// InFlight and QueueDepth mirror the admission gauges.
	InFlight   int64 `json:"in_flight"`
	QueueDepth int64 `json:"queue_depth"`
}

// HealthSnapshot assembles the /healthz payload.
func (s *Server) HealthSnapshot() HealthStatus {
	hs := HealthStatus{
		Status:   s.Health().String(),
		ShedRate: s.shed.Rate(),
		InFlight: int64(s.met.inFlight.Value()),
	}
	if d := s.met.queued.Load() - hs.InFlight; d > 0 {
		hs.QueueDepth = d
	}
	return hs
}

// Shutdown stops admission, drains the queue and waits for workers. If ctx
// expires first, in-flight solves are cancelled cooperatively and Shutdown
// still waits for them to unwind.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		if err := resilience.Safe(func() {
			defer close(done) // shutdown must never hang on a panicked waiter
			s.wg.Wait()
			s.bg.Wait() // background tuning probes observe baseCtx, so they unwind too
		}); err != nil {
			s.met.panics.Inc()
		}
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel() // cancel in-flight solves, then wait for the unwind
		<-done
	}
	s.baseCancel()
	// Persist Get-side recency updates so the LRU order survives restarts.
	if ferr := s.tuner.store.Flush(); ferr != nil {
		s.met.tuneStoreErrors.Inc()
	}
	return err
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runGuarded(j)
	}
}

// runGuarded isolates panics: a panicking solve (kernel bug, injected chaos)
// becomes a failed job with a stack-tagged error — never a dead worker or a
// daemon crash. Deferred cleanups inside run (the in-flight gauge) execute
// during the unwind as usual.
func (s *Server) runGuarded(j *job) {
	err := resilience.Safe(func() { s.run(j) })
	if err == nil {
		return
	}
	s.met.panics.Inc()
	s.fail(j, err)
}

// run executes one job: resolve its configuration and set-up, solve it with
// the method it asked for (or, for method:"auto", the tuner's choice), and
// complete it. A failed solve is reported as it ran; nothing reroutes it.
func (s *Server) run(j *job) {
	j.setRunning(time.Now())
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)

	// A deadline or cancel that fired while the job queued ends it here.
	if j.ctx.Err() != nil {
		s.finishJob(j, JobCancelled, &SolveResult{Error: "cancelled before start"})
		return
	}
	a, fp, err := s.reg.get(j.req.Matrix)
	if err != nil {
		s.fail(j, err)
		return
	}
	// method:"auto" resolves through the tuner once the fingerprint is known
	// and before setup, because the tuned configuration may pick a different
	// preconditioner than the request carried.
	req := j.req
	var tuneSource string
	var tuned *tune.Candidate
	if req.Method == "auto" {
		req, tuneSource, tuned = s.resolveAuto(a, fp, req)
	}
	spec, err := precond.Parse(req.Precond)
	if err != nil {
		s.fail(j, err)
		return
	}
	c := tune.Candidate{Method: req.Method, S: req.S, Basis: req.Basis, Precond: req.Precond}
	solve, m, opts, err := c.Resolve(a, s.setup(fp, spec))
	if err != nil {
		s.fail(j, err)
		return
	}
	opts.Tol, opts.MaxIterations, opts.Cancel = req.Tol, req.MaxIters, j.ctx.Done()
	if req.Trace {
		opts.Trace = obs.New(0) // per-job tracer; Stats.Phases flows to the result
	}
	s.chaos.arm(&opts)
	b, err := buildRHS(req.RHS, a.Dim())
	if err != nil {
		s.fail(j, err)
		return
	}
	s.chaos.maybePanic(j.id) // inside the worker's Safe guard

	t0 := time.Now()
	x, stats, err := solve(a, m, b, opts)
	elapsed := time.Since(t0)

	res := statsToResult(stats, err, elapsed, norm2(x))
	res.Method = req.Method
	res.TuneSource = tuneSource
	res.TunedConfig = tuned
	s.complete(j, res, stats, err, elapsed)
}

// setup returns the cached set-up of (fp, spec). A fresh entry points at the
// Ritz estimates of the registry entry owning fp, so they survive its
// eviction. Evicting the last set-up on a fingerprint releases its matrix:
// after the cache's lock is gone, so the cache never waits on a registry
// entry's lock.
func (s *Server) setup(fp uint64, spec precond.Spec) *tune.Setup {
	setup, evicted := s.cache.get(setupKey{fp: fp, prec: spec.Canonical()}, func() *tune.Setup {
		return &tune.Setup{Spectra: &s.reg.owner(fp).spectra}
	})
	for _, k := range evicted {
		if !s.cache.holds(func(o setupKey) bool { return o.fp == k.fp }) {
			s.reg.release(k.fp)
		}
	}
	return setup
}

// fail ends a job that could not be solved.
func (s *Server) fail(j *job, err error) {
	s.finishJob(j, JobFailed, &SolveResult{Error: err.Error()})
}

// complete books one finished solve into the metrics and moves its job to
// its terminal state. err is the solver's error. A numerical breakdown is no
// error: it comes back in st, and a solve that broke down or ran to the cap
// is JobDone, not converged — except one that ended on the solver's
// stagnation window without converging, which is JobStagnated.
func (s *Server) complete(j *job, res *SolveResult, st *solver.Stats, err error, elapsed time.Duration) {
	s.met.observe(res.Method, elapsed)
	s.met.soloSolves.Inc()
	s.met.iterations.Add(int64(res.Iterations))
	s.met.mvProducts.Add(int64(res.MVProducts))
	s.met.precApplies.Add(int64(res.PrecApplies))
	var be *solver.BreakdownError
	switch {
	case isCancelled(err):
		s.finishJob(j, JobCancelled, res)
	case err != nil:
		s.finishJob(j, JobFailed, res)
	case st != nil && !st.Converged && errors.As(st.Breakdown, &be) && be.Site == solver.SiteStagnation:
		res.Error = "stagnated: " + be.Detail
		s.met.stagnated.Inc()
		s.finishJob(j, JobStagnated, res)
	default:
		s.finishJob(j, JobDone, res)
	}
}

// finishJob finalizes a job exactly once and releases its admission slot.
// done closes last, so a waiter that wakes on it reads settled counters.
func (s *Server) finishJob(j *job, state JobState, res *SolveResult) {
	if !j.finish(state, res, time.Now()) {
		return
	}
	s.jobs.markDone(j.id)
	s.met.queued.Add(-1)
	switch state {
	case JobDone:
		s.met.completed.Inc()
	case JobFailed:
		s.met.failed.Inc()
	case JobCancelled, JobStagnated:
		// complete counts spcgd_stagnated_total separately; both states
		// release the job as a cancellation for accounting.
		s.met.cancelled.Inc()
	}
	close(j.done)
}

func isCancelled(err error) bool { return errors.Is(err, solver.ErrCancelled) }

// buildRHS constructs the right-hand side named by spec: "ones" (default),
// "sin", or "random[:seed]" (deterministic per seed).
func buildRHS(spec string, n int) ([]float64, error) {
	name, arg := strings.TrimSpace(strings.ToLower(spec)), ""
	if i := strings.IndexByte(name, ':'); i >= 0 {
		name, arg = name[:i], name[i+1:]
	}
	b := make([]float64, n)
	switch name {
	case "", "ones":
		for i := range b {
			b[i] = 1
		}
	case "sin":
		for i := range b {
			b[i] = math.Sin(float64(i + 1))
		}
	case "random":
		seed := int64(1)
		if arg != "" {
			var err error
			if seed, err = strconv.ParseInt(arg, 10, 64); err != nil {
				return nil, fmt.Errorf("bad rhs seed %q", arg)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for i := range b {
			b[i] = 2*rng.Float64() - 1
		}
	default:
		return nil, fmt.Errorf("unknown rhs %q (ones, sin, random[:seed])", spec)
	}
	return b, nil
}

func norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
