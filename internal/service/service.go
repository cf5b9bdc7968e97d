// Package service implements the spcgd solve daemon: a concurrent,
// stdlib-only JSON façade over the solver stack. It adds three serving-side
// capabilities on top of the numerical code:
//
//   - a bounded worker pool with admission control (queue full → immediate
//     rejection rather than unbounded buffering);
//   - a setup cache keyed by (matrix fingerprint, preconditioner spec) that
//     reuses preconditioner construction and Lanczos spectral estimates
//     across requests — the expensive "excluded from timings" setup work of
//     the paper, amortized across a serving workload;
//   - request coalescing: PCG requests for the same matrix and tolerance
//     that arrive while the first of them still waits for a worker are
//     solved together as one multi-RHS block solve (solver.BatchPCG),
//     sharing the SpMV sweeps.
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
	"spcg/internal/suite"
	"spcg/internal/tune"
	"spcg/internal/vec"
)

// Config sizes the server. The zero value gets sensible defaults.
type Config struct {
	// Workers is the solver pool size (default: NumCPU, max 8).
	Workers int
	// QueueDepth bounds admitted-but-unfinished jobs; submissions beyond it
	// are rejected with ErrQueueFull (default 64).
	QueueDepth int
	// BatchMax caps the requests one coalesced block solve carries: a queued
	// work item that holds this many takes no more companions (default 8; 1
	// disables coalescing).
	BatchMax int
	// CacheSize is the setup-cache capacity in (matrix, preconditioner)
	// entries (default 32). It bounds the built matrices too: a matrix stays
	// built only while a set-up on it is cached.
	CacheSize int
	// DefaultTimeout bounds each job's wall time when the request does not
	// set timeout_ms (default 120s).
	DefaultTimeout time.Duration
	// Scale divides the suite problem sizes, as in `spcgbench -scale`
	// (default 100: small enough for interactive serving).
	Scale int
	// BreakerFailures is the consecutive-failure count that opens a
	// per-(matrix, method, s) circuit breaker, degrading the method ladder
	// sPCG(s) → SPCGAdaptive → PCG for subsequent requests (default 3;
	// negative disables the breaker).
	BreakerFailures int
	// BreakerCooldown is how long an open breaker waits before a half-open
	// probe re-tests the fast path (default 30s).
	BreakerCooldown time.Duration
	// Chaos, when non-nil, turns on service-level fault injection (injected
	// panics, solver soft errors) for chaos testing.
	Chaos *ChaosConfig
	// TuneEntries bounds retained tuning decisions, LRU-evicted (default 128).
	TuneEntries int
	// TuneProbeIters is the iteration cap of the first tuning trial round;
	// each successive-halving round quadruples it (default 40).
	TuneProbeIters int
	// TuneStore is the autotuning decision store; cmd/spcgd opens it from
	// -tune-store. Nil keeps decisions in memory only: they die with the
	// process.
	TuneStore *tune.Store
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
	if c.BatchMax < 1 {
		c.BatchMax = 8
	}
	if c.CacheSize < 1 {
		c.CacheSize = 32
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 120 * time.Second
	}
	if c.Scale < 1 {
		c.Scale = 100
	}
	if c.BreakerFailures == 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.TuneEntries < 1 {
		c.TuneEntries = 128
	}
	if c.TuneProbeIters < 1 {
		c.TuneProbeIters = 40
	}
	return c
}

// Request limits: a single hostile request must not be able to pin a worker
// forever or allocate unbounded memory.
const (
	// maxRequestIters bounds SolveRequest.MaxIters: iteration history and
	// per-iteration work scale with it.
	maxRequestIters = 1_000_000
	// maxRequestS bounds SolveRequest.S: basis blocks allocate (s+1) length-n
	// vectors.
	maxRequestS = 64
)

// ErrQueueFull is returned by Submit when admission control rejects a job.
var ErrQueueFull = fmt.Errorf("service: queue full")

// ErrShuttingDown is returned by Submit after Shutdown has begun.
var ErrShuttingDown = fmt.Errorf("service: shutting down")

// ErrLimitExceeded is returned by Submit when a request exceeds the resource
// limits (maxRequestIters, maxRequestS, maxMatrixDim); the HTTP layer maps it
// to 400.
var ErrLimitExceeded = fmt.Errorf("service: request exceeds configured limits")

// ErrBadBasis is returned by Submit when SolveRequest.Basis names an unknown
// polynomial basis; the HTTP layer maps it to 400.
var ErrBadBasis = fmt.Errorf("service: unknown basis")

// degradeNext is the circuit-breaker degradation ladder: when the breaker
// for (matrix, method, s) is open, the request falls through to the next
// rung. Every s-step method degrades to the adaptive s-halving cascade —
// the paper-faithful mitigation for basis/Gram ill-conditioning — and the
// cascade itself degrades to plain PCG, which is never breaker-gated (it is
// the floor of the ladder).
var degradeNext = map[string]string{
	"spcg":     "adaptive",
	"spcgmon":  "adaptive",
	"capcg":    "adaptive",
	"capcg3":   "adaptive",
	"adaptive": "pcg",
}

// batchKey groups coalescable requests: same matrix key (suite.Key),
// preconditioner and convergence configuration solve in lockstep as one
// block.
type batchKey struct {
	matrix   string
	prec     string
	tol      float64
	maxIters int
}

// workItem is one unit of queued work. A coalescable item is also reachable
// through Server.open under its key until a worker takes it, and collects
// companions for exactly that long; key is the zero value for every other
// item.
type workItem struct {
	key  batchKey
	jobs []*job // len > 1 ⇒ coalesced PCG batch; appended to under Server.mu
}

// Server is the solve service. Create with New, serve via Handler, stop with
// Shutdown.
type Server struct {
	cfg      Config
	reg      *registry
	cache    *setupCache
	jobs     *jobStore
	met      *metrics
	start    time.Time
	breakers *resilience.Breakers // nil when BreakerFailures < 0
	shed     *resilience.RateWindow
	chaos    *chaosState // nil unless Config.Chaos was set

	tuner *tuneState

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue chan *workItem
	wg    sync.WaitGroup
	// bg tracks background tuning goroutines; Shutdown waits for them after
	// the worker pool drains.
	bg sync.WaitGroup

	mu     sync.Mutex
	closed bool
	// open holds, per batch key, the coalescable item that is queued and not
	// yet taken by a worker.
	open map[batchKey]*workItem
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
		// Admission caps outstanding jobs at QueueDepth and a work item never
		// carries more jobs than exist, so sends below never block.
		queue: make(chan *workItem, cfg.QueueDepth),
		open:  map[batchKey]*workItem{},
	}
	if cfg.BreakerFailures > 0 {
		s.breakers = resilience.NewBreakers(resilience.BreakerConfig{
			Failures: cfg.BreakerFailures,
			Cooldown: cfg.BreakerCooldown,
		})
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
	timeout := s.cfg.DefaultTimeout
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
	// Traced requests opt out of coalescing: a block solve would share one
	// phase breakdown across unrelated submitters.
	if req.Method == "pcg" && !req.NoBatch && !req.Trace && s.cfg.BatchMax > 1 {
		s.enqueueCoalescedLocked(j)
	} else {
		s.queue <- &workItem{jobs: []*job{j}}
	}
	s.mu.Unlock()

	s.met.requests.Inc()
	return j, nil
}

// enqueueCoalescedLocked adds j to the item for its key that is queued and
// not yet taken by a worker, or queues a new one when there is none or it is
// full. An idle server therefore runs a batch of one with no wait; a busy one
// collects companions for exactly as long as they would have queued anyway.
func (s *Server) enqueueCoalescedLocked(j *job) {
	key := batchKey{
		matrix:   strings.TrimSpace(j.req.Matrix),
		tol:      j.req.Tol,
		maxIters: j.req.MaxIters,
	}
	// The matrix is validated when the item runs: a name with no key keeps
	// its own spelling and fails there.
	if k, err := suite.Key(j.req.Matrix); err == nil {
		key.matrix = k
	}
	spec, _ := precond.Parse(j.req.Precond) // validated in Submit
	key.prec = spec.Canonical()

	if item := s.open[key]; item != nil && len(item.jobs) < s.cfg.BatchMax {
		item.jobs = append(item.jobs, j)
		return
	}
	item := &workItem{key: key, jobs: []*job{j}}
	s.open[key] = item
	s.queue <- item
}

// take closes a dequeued item to further companions. A full item that a
// newer one has replaced under its key, and every non-coalescable item, is
// not in open and needs nothing.
func (s *Server) take(item *workItem) {
	s.mu.Lock()
	if s.open[item.key] == item {
		delete(s.open, item.key)
	}
	s.mu.Unlock()
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
// begun, degraded while any circuit breaker denies its fast path or
// admissions were shed within the rate window, healthy otherwise.
func (s *Server) Health() resilience.Health {
	if s.Draining() {
		return resilience.Draining
	}
	if s.breakers != nil && s.breakers.OpenCount() > 0 {
		return resilience.Degraded
	}
	if s.shed.Rate() > 0 {
		return resilience.Degraded
	}
	return resilience.Healthy
}

// HealthStatus is the JSON document served at /healthz.
type HealthStatus struct {
	Status string `json:"status"` // healthy | degraded | draining
	// OpenBreakers lists circuits currently denying their fast path, as
	// "method(s=K)@fingerprint state".
	OpenBreakers []string `json:"open_breakers,omitempty"`
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
	if s.breakers != nil {
		for _, ob := range s.breakers.Open() {
			hs.OpenBreakers = append(hs.OpenBreakers, ob.Key.String()+" "+ob.State.String())
		}
	}
	return hs
}

// Shutdown stops admission, drains the queue (an item still open to
// companions is in it like any other) and waits for workers. If ctx expires
// first, in-flight solves are cancelled cooperatively and Shutdown still
// waits for them to unwind.
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
	for item := range s.queue {
		s.take(item)
		s.runGuarded(item)
	}
}

// runGuarded isolates panics: a panicking solve (kernel bug, injected chaos)
// becomes a set of failed jobs with a stack-tagged error — never a dead
// worker or a daemon crash. Deferred cleanups inside run (in-flight gauge,
// batch watchers) execute during the unwind as usual.
func (s *Server) runGuarded(item *workItem) {
	err := resilience.Safe(func() { s.run(item) })
	if err == nil {
		return
	}
	s.met.panics.Inc()
	for _, j := range item.jobs {
		// A panic mid-solve is a failure signal for any breaker-gated member.
		if key, ok := j.breakerKeyIfSet(); ok {
			s.breakerRecord(key, false)
		}
		s.finishJob(j, JobFailed, &SolveResult{Error: err.Error(), BatchSize: len(item.jobs)})
	}
}

// run executes one work item: resolve shared setup once, then solve solo or
// as a coalesced block.
func (s *Server) run(item *workItem) {
	now := time.Now()
	for _, j := range item.jobs {
		j.setRunning(now)
	}
	n := float64(len(item.jobs))
	s.met.inFlight.Add(n)
	defer s.met.inFlight.Add(-n)

	// Drop members whose deadline or cancel fired while queued.
	live := item.jobs[:0]
	for _, j := range item.jobs {
		if j.ctx.Err() != nil {
			s.finishJob(j, JobCancelled, &SolveResult{Error: "cancelled before start", BatchSize: 1})
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}

	lead := live[0]
	a, fp, err := s.reg.get(lead.req.Matrix)
	if err != nil {
		s.failAll(live, err)
		return
	}
	// method:"auto" resolves through the tuner once the fingerprint is known
	// and before setup, because the tuned configuration may pick a different
	// preconditioner than the request carried. Auto requests never coalesce
	// (Submit batches only literal "pcg"), so this is always the solo path.
	eff := lead.req
	var tuneSource string
	var tuned *tune.Candidate
	if eff.Method == "auto" {
		eff, tuneSource, tuned = s.resolveAuto(a, fp, eff)
	}
	// The format engine decides (once per matrix) which storage the hot path
	// reads — or honours a tuned candidate's pinned format.
	wantFormat := ""
	if tuned != nil {
		wantFormat = tuned.Format
	}
	plan := s.storage(a, fp, wantFormat)
	spec, err := precond.Parse(eff.Precond)
	if err != nil {
		s.failAll(live, err)
		return
	}
	// The preconditioner is built here, once for a whole batch, and before
	// runSolo consults the breaker: a set-up failure must not leave a
	// half-open probe admitted and never recorded.
	setup := s.setup(fp, spec)
	m, err := setup.Preconditioner(plan.mat, spec)
	if err != nil {
		s.failAll(live, err)
		return
	}

	if len(live) > 1 {
		s.runBatch(live, plan, m)
		return
	}
	s.runSolo(lead, eff, tuneSource, tuned, plan, fp, setup)
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

func (s *Server) failAll(jobs []*job, err error) {
	for _, j := range jobs {
		s.finishJob(j, JobFailed, &SolveResult{Error: err.Error(), BatchSize: 1})
	}
}

// applyBreaker walks the degradation ladder for breaker-gated methods: when
// the circuit for (fp, method, s) is open, the request falls to the next
// rung until an allowed method (or the ungated floor, plain PCG) is reached.
// gated reports whether the chosen method's outcome must be Recorded.
func (s *Server) applyBreaker(fp uint64, req SolveRequest) (method string, key resilience.Key, gated bool, degradedFrom string) {
	method = req.Method
	if s.breakers == nil {
		return method, resilience.Key{}, false, ""
	}
	if _, ok := degradeNext[method]; !ok {
		return method, resilience.Key{}, false, "" // pcg, pcg3: never gated
	}
	now := time.Now()
	for {
		key = breakerKey(fp, method, req.S)
		if allowed, _ := s.breakers.Allow(key, now); allowed {
			if method != req.Method {
				degradedFrom = req.Method
			}
			return method, key, true, degradedFrom
		}
		method = degradeNext[method]
		if _, ok := degradeNext[method]; !ok {
			// Reached the PCG floor: always allowed, never gated.
			return method, resilience.Key{}, false, req.Method
		}
	}
}

// breakerKey names the circuit of (matrix, method, s) with s as the solver
// will run it, so keys match what runs.
func breakerKey(fp uint64, method string, s int) resilience.Key {
	if s <= 0 {
		s = solver.DefaultS
	}
	return resilience.Key{Fingerprint: fp, Method: method, S: s}
}

// breakerRecord feeds one outcome into the circuit for key and mirrors the
// resulting transition into metrics.
func (s *Server) breakerRecord(key resilience.Key, success bool) {
	if s.breakers == nil {
		return
	}
	switch s.breakers.Record(key, success, time.Now()) {
	case resilience.Opened:
		s.met.breakerOpened.Inc()
	case resilience.Restored:
		s.met.breakerRestored.Inc()
	}
}

// runSolo executes one job with the effective request's method — or, when
// the circuit breaker for its (matrix, method, s) tuple is open, the next
// rung of the degradation ladder. req is the request as resolved (it differs
// from j.req for method:"auto").
func (s *Server) runSolo(j *job, req SolveRequest, tuneSource string, tuned *tune.Candidate, plan formatPlan, fp uint64, setup *tune.Setup) {
	a := plan.mat
	method, key, gated, degradedFrom := s.applyBreaker(fp, req)
	if gated {
		j.setBreakerKey(key)
	}
	if degradedFrom != "" {
		s.met.degraded.Inc()
	}
	c := tune.Candidate{Method: method, S: req.S, Basis: req.Basis, Precond: req.Precond}
	solve, m, opts, err := c.Resolve(a, setup)
	if err != nil {
		s.finishJob(j, JobFailed, &SolveResult{Error: err.Error(), BatchSize: 1})
		return
	}
	opts.Tol, opts.MaxIterations, opts.Cancel = req.Tol, req.MaxIters, j.ctx.Done()
	if req.Trace {
		opts.Trace = obs.New(0) // per-job tracer; Stats.Phases flows to the result
	}
	s.chaos.arm(&opts)
	b, err := buildRHS(req.RHS, a.Dim())
	if err != nil {
		s.finishJob(j, JobFailed, &SolveResult{Error: err.Error(), BatchSize: 1})
		return
	}
	s.chaos.maybePanic(j.id) // inside the worker's Safe guard

	t0 := time.Now()
	x, stats, err := solve(plan.operator(), m, b, opts)
	elapsed := time.Since(t0)

	res := statsToResult(stats, err, false, 1, elapsed, norm2(x))
	res.Method = method
	res.Format = plan.name
	res.DegradedFrom = degradedFrom
	res.TuneSource = tuneSource
	res.TunedConfig = tuned
	// A client cancel or deadline is no numerical signal either way; a
	// stagnated solve is a failure, as any breakdown is.
	if gated && !isCancelled(err) {
		s.breakerRecord(key, err == nil && stats != nil && stats.Converged)
	}
	s.complete(j, res, stats, err, elapsed)
}

// complete books one finished solve into the metrics and moves its job to
// its terminal state. It is the one completion path of solo and block
// solves. err is the solve's error: a solo solve passes the solver's own, a
// block member ErrCancelled when its own context is done (its cancel or
// deadline wins even if its column converged before the block wound down)
// and nil otherwise. A numerical breakdown is no error: it comes back in st,
// and a solve that broke down or ran to the cap is JobDone, not converged —
// except one that ended on the solver's stagnation window without
// converging, which is JobStagnated.
func (s *Server) complete(j *job, res *SolveResult, st *solver.Stats, err error, elapsed time.Duration) {
	s.met.observe(res.Method, elapsed)
	s.met.countServe(res.Format)
	if !res.Batched {
		s.met.soloSolves.Inc()
	}
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

// runBatch executes k coalesced PCG jobs as one multi-RHS block solve. The
// block's Cancel channel closes only when every member's context is done, so
// one member's deadline never aborts its companions.
func (s *Server) runBatch(members []*job, plan formatPlan, m precond.Interface) {
	a := plan.mat
	k := len(members)
	n := a.Dim()
	bs := vec.NewBlock(n, k)
	for i, j := range members {
		col, err := buildRHS(j.req.RHS, n)
		if err != nil {
			// Validation makes this unreachable, but stay defensive.
			s.finishJob(j, JobFailed, &SolveResult{Error: err.Error(), BatchSize: k})
			col = make([]float64, n)
		}
		copy(bs.Col(i), col)
	}

	allDone := make(chan struct{})
	go func() {
		if err := resilience.Safe(func() {
			defer close(allDone)
			for _, j := range members {
				<-j.ctx.Done() // finishJob cancels each ctx, so this always drains
			}
		}); err != nil {
			s.met.panics.Inc()
		}
	}()

	opts := solver.Options{Tol: members[0].req.Tol, MaxIterations: members[0].req.MaxIters, Cancel: allDone}
	t0 := time.Now()
	xs, statsList, err := solver.BatchPCG(plan.operator(), m, bs, opts)
	elapsed := time.Since(t0)

	if err != nil && !isCancelled(err) {
		s.failAll(members, err)
		return
	}
	s.met.blockSolves.Inc()
	s.met.batchedRequests.Add(int64(k))
	s.met.maxBatch.SetMax(float64(k))
	for i, j := range members {
		if j.status().State != JobRunning {
			continue // already failed above on a bad RHS
		}
		var st *solver.Stats
		if statsList != nil {
			st = statsList[i]
		}
		var xnorm float64
		if xs != nil {
			xnorm = norm2(xs.Col(i))
		}
		var jerr error
		if j.ctx.Err() != nil || isCancelled(err) {
			jerr = solver.ErrCancelled
		}
		res := statsToResult(st, jerr, true, k, elapsed, xnorm)
		res.Method = j.req.Method
		res.Format = plan.name
		s.complete(j, res, st, jerr, elapsed)
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
