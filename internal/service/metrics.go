package service

import (
	"sync"
	"sync/atomic"
	"time"

	"spcg/internal/obs"
	"spcg/internal/pool"
	"spcg/internal/vec"
)

// metrics is the server's typed metric surface, built on obs.Registry so one
// set of instruments feeds both exposition formats: Prometheus text (the
// /metrics default) and the structured MetricsSnapshot JSON
// (/metrics?format=json). Scrape-time funcs cover the values owned elsewhere
// — uptime, setup-cache stats, the pool engine's kernel counters — so they
// are never double-booked.
type metrics struct {
	reg *obs.Registry

	requests  *obs.Counter
	rejected  *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	cancelled *obs.Counter
	dedupHits *obs.Counter

	inFlight *obs.Gauge
	// queued counts admitted-but-unfinished jobs. It is the admission count:
	// Submit gates on it against QueueDepth, and spcgd_queue_depth derives
	// from it at scrape time (queued − in-flight, clamped at zero).
	queued atomic.Int64

	soloSolves *obs.Counter

	iterations  *obs.Counter
	mvProducts  *obs.Counter
	precApplies *obs.Counter

	// Resilience families (see docs/RESILIENCE.md).
	panics          *obs.Counter
	stagnated       *obs.Counter
	degraded        *obs.Counter
	breakerOpened   *obs.Counter
	breakerRestored *obs.Counter
	srv             *Server // bound by bindResilience for scrape-time funcs

	// Autotuning families (see docs/TUNING.md).
	tuneRequests    *obs.Counter
	tuneStoreHits   *obs.Counter
	tuneStoreMisses *obs.Counter
	tuneTrials      *obs.Counter
	tuneBreakdowns  *obs.Counter
	tuneRuns        *obs.Counter
	tuneStoreErrors *obs.Counter

	mu      sync.Mutex
	latency map[string]*obs.Histogram // per solver method
}

func newMetrics(start time.Time, cache *setupCache, matrices *registry) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg, latency: map[string]*obs.Histogram{}}

	m.requests = reg.Counter("spcgd_requests_total", "Accepted solve submissions.")
	m.rejected = reg.Counter("spcgd_rejected_total", "Submissions refused at admission (queue full or shutting down).")
	m.dedupHits = reg.Counter("spcgd_dedup_hits_total", "Resubmissions answered by an existing job via request_id idempotency.")
	m.completed = reg.Counter("spcgd_completed_total", "Jobs finished with status done.")
	m.failed = reg.Counter("spcgd_failed_total", "Jobs finished with status failed.")
	m.cancelled = reg.Counter("spcgd_cancelled_total", "Jobs finished with status cancelled.")

	m.inFlight = reg.Gauge("spcgd_in_flight", "Jobs currently executing on the worker pool.")
	reg.GaugeFunc("spcgd_queue_depth", "Admitted jobs waiting for a worker (queued minus in-flight).",
		func() float64 {
			d := float64(m.queued.Load()) - m.inFlight.Value()
			if d < 0 {
				d = 0
			}
			return d
		})
	reg.GaugeFunc("spcgd_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(start).Seconds() })

	reg.CounterFunc("spcgd_setup_cache_hits_total", "Setup-cache lookups that reused a cached preconditioner entry.",
		func() float64 { h, _, _ := cache.stats(); return float64(h) })
	reg.CounterFunc("spcgd_setup_cache_misses_total", "Setup-cache lookups that had to build a fresh entry.",
		func() float64 { _, mi, _ := cache.stats(); return float64(mi) })
	reg.GaugeFunc("spcgd_setup_cache_entries", "Entries currently resident in the setup cache.",
		func() float64 { _, _, e := cache.stats(); return float64(e) })
	reg.GaugeFunc("spcgd_setup_cache_hit_ratio", "Fraction of setup-cache lookups served from cache.",
		func() float64 {
			h, mi, _ := cache.stats()
			if h+mi == 0 {
				return 0
			}
			return float64(h) / float64(h+mi)
		})

	reg.GaugeFunc("spcgd_registry_matrices", "Matrices the registry holds built: those a cached set-up is built on.",
		func() float64 { n, _ := matrices.residency(); return float64(n) })
	reg.GaugeFunc("spcgd_registry_bytes", "Bytes of the registry's built matrices' CSR arrays.",
		func() float64 { _, b := matrices.residency(); return float64(b) })

	m.soloSolves = reg.Counter("spcgd_solo_solves_total", "Solves run; every job is solved alone, one right-hand side each.")

	m.iterations = reg.Counter("spcgd_solver_iterations_total", "Solver iterations summed over all jobs.")
	m.mvProducts = reg.Counter("spcgd_solver_mv_products_total", "Sparse matrix-vector products summed over all jobs.")
	m.precApplies = reg.Counter("spcgd_solver_prec_applies_total", "Preconditioner applications summed over all jobs.")

	m.panics = reg.Counter("spcgd_solver_panics_total", "Solve panics recovered by the worker guard (each becomes a failed job, never a crash).")
	m.stagnated = reg.Counter("spcgd_stagnated_total", "Jobs the solver stopped for lack of residual progress (terminal state stagnated).")
	m.degraded = reg.Counter("spcgd_degraded_solves_total", "Solves rerouted down the method ladder by an open circuit breaker.")
	m.breakerOpened = reg.Counter("spcgd_breaker_opened_total", "Circuit-breaker open transitions (including re-opens after a failed probe).")
	m.breakerRestored = reg.Counter("spcgd_breaker_restored_total", "Circuit-breaker restorations (successful half-open probes closing the circuit).")

	m.tuneRequests = reg.Counter("spcgd_tune_requests_total", "method:\"auto\" requests resolved through the autotuner.")
	m.tuneStoreHits = reg.Counter("spcgd_tune_store_hits_total", "Auto resolutions served from a persisted tuning decision.")
	m.tuneStoreMisses = reg.Counter("spcgd_tune_store_misses_total", "Auto resolutions that found no stored decision (the plan's PCG candidate served, background trials started).")
	m.tuneTrials = reg.Counter("spcgd_tune_trials_total", "Capped-iteration tuning probe solves executed.")
	m.tuneBreakdowns = reg.Counter("spcgd_tune_trial_breakdowns_total", "Tuning probes that ended in numerical breakdown (their candidate is eliminated).")
	m.tuneRuns = reg.Counter("spcgd_tune_runs_total", "Completed tuning runs that produced a stored decision.")
	m.tuneStoreErrors = reg.Counter("spcgd_tune_store_errors_total", "Tune-store persistence failures (write or flush).")

	// The pool engine owns its kernel counters (process-wide atomics); expose
	// them read-through so /metrics shows whether fusion is engaged in
	// production, not just in benchmarks.
	reg.CounterFunc("spcgd_kernel_dispatches_total", "Worker-pool parallel kernel dispatches.",
		func() float64 { return float64(pool.ReadStats().Dispatches) })
	reg.CounterFunc("spcgd_kernel_pool_wakes_total", "Kernel dispatches that had to unpark a pool worker (a handful per solve while the hot team holds; one per kernel means the window is being missed).",
		func() float64 { return float64(pool.ReadStats().Wakes) })
	reg.CounterFunc("spcgd_kernel_inline_runs_total", "Kernel dispatches degraded to inline execution.",
		func() float64 { return float64(pool.ReadStats().InlineRuns) })
	reg.CounterFunc("spcgd_kernel_busy_inline_total", "Kernel dispatches that found the pool running another solve's kernel and ran all their parts on the caller (also counted in spcgd_kernel_inline_runs_total).",
		func() float64 { return float64(pool.ReadStats().BusyInline) })
	reg.CounterFunc("spcgd_kernel_fused_gram_total", "Fused cache-blocked Gram kernel invocations.",
		func() float64 { return float64(pool.ReadStats().FusedGramCalls) })
	reg.CounterFunc("spcgd_kernel_fused_combine_total", "Fused block-combine kernel invocations.",
		func() float64 { return float64(pool.ReadStats().FusedCombines) })
	reg.CounterFunc("spcgd_kernel_fused_basis_steps_total", "Fused SpMV+three-term+diag basis steps.",
		func() float64 { return float64(pool.ReadStats().FusedBasisSteps) })
	reg.CounterFunc("spcgd_kernel_spmv_dispatches_total", "Pool-dispatched SpMV kernels.",
		func() float64 { return float64(pool.ReadStats().SpMVDispatches) })
	reg.GaugeFunc("spcgd_kernel_workers", "Shared kernel pool worker count.",
		func() float64 { return float64(pool.DefaultWorkers()) })
	reg.Gauge("spcgd_kernel_impl", "Vector microkernel implementation selected at start-up (info gauge, always 1): impl is avx2 or go.",
		obs.L("impl", vec.KernelImpl())).Set(1)

	return m
}

// bindResilience registers the scrape-time resilience gauges once the server
// (breakers, shed window, health machine, chaos state) exists; counters are
// created in newMetrics so increments never race construction.
func (m *metrics) bindResilience(s *Server) {
	m.srv = s
	m.reg.GaugeFunc("spcgd_breakers_open", "Circuits currently denying their fast path (open or half-open).",
		func() float64 {
			if s.breakers == nil {
				return 0
			}
			return float64(s.breakers.OpenCount())
		})
	m.reg.GaugeFunc("spcgd_shed_rate", "Admissions rejected per second over the last 30s window.",
		func() float64 { return s.shed.Rate() })
	m.reg.GaugeFunc("spcgd_health_state", "Serving health state machine: 0 healthy, 1 degraded, 2 draining.",
		func() float64 { return float64(s.Health()) })
	if s.chaos != nil {
		m.reg.CounterFunc("spcgd_chaos_panics_injected_total", "Panics injected by the chaos layer (chaos mode only).",
			s.chaos.injectedPanics)
	}
}

// bindTune registers the scrape-time tune-store gauge once the server's
// tuner exists (same pattern as bindResilience).
func (m *metrics) bindTune(s *Server) {
	m.reg.GaugeFunc("spcgd_tune_store_entries", "Tuning decisions currently resident in the store.",
		func() float64 { return float64(s.tuner.store.Len()) })
}

// observe records one request latency under its solver method label.
func (m *metrics) observe(method string, d time.Duration) {
	m.mu.Lock()
	h := m.latency[method]
	if h == nil {
		h = m.reg.Histogram("spcgd_request_duration_seconds",
			"End-to-end solve latency by solver method.", obs.LatencyBuckets, obs.L("method", method))
		m.latency[method] = h
	}
	m.mu.Unlock()
	h.Observe(d.Seconds())
}

// LatencySnapshot is the per-method latency summary in the JSON /metrics view.
type LatencySnapshot struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// MetricsSnapshot is the JSON document served at /metrics?format=json. It is
// a structured view over the same registry the Prometheus exposition reads.
type MetricsSnapshot struct {
	UptimeS    float64 `json:"uptime_s"`
	QueueDepth int64   `json:"queue_depth"`
	InFlight   int64   `json:"in_flight"`

	RequestsTotal int64 `json:"requests_total"`
	Rejected      int64 `json:"rejected_total"`
	Completed     int64 `json:"completed_total"`
	Failed        int64 `json:"failed_total"`
	Cancelled     int64 `json:"cancelled_total"`

	SetupCache struct {
		Hits    int64   `json:"hits"`
		Misses  int64   `json:"misses"`
		HitRate float64 `json:"hit_rate"`
		Entries int     `json:"entries"`
	} `json:"setup_cache"`

	// Registry counts the matrices this backend keeps built (those a cached
	// set-up is built on) and their CSR bytes.
	Registry struct {
		Matrices int   `json:"matrices"`
		Bytes    int64 `json:"bytes"`
	} `json:"registry"`

	// Batching.SoloSolves counts every solve. BatchedRequests and
	// BlockSolves are always 0: nothing coalesces requests, and the benchmark
	// still reads them until ROADMAP item 3 drops them.
	Batching struct {
		BatchedRequests int64 `json:"batched_requests"`
		BlockSolves     int64 `json:"block_solves"`
		SoloSolves      int64 `json:"solo_solves"`
	} `json:"batching"`

	Solver struct {
		IterationsTotal  int64 `json:"iterations_total"`
		MVProductsTotal  int64 `json:"mv_products_total"`
		PrecAppliesTotal int64 `json:"prec_applies_total"`
	} `json:"solver"`

	// Resilience summarizes the fault-survival layer: panic isolation,
	// stagnated solves, circuit breakers and load shedding.
	Resilience struct {
		Health          string  `json:"health"`
		SolverPanics    int64   `json:"solver_panics_total"`
		Stagnated       int64   `json:"stagnated_total"`
		DegradedSolves  int64   `json:"degraded_solves_total"`
		BreakerOpened   int64   `json:"breaker_opened_total"`
		BreakerRestored int64   `json:"breaker_restored_total"`
		BreakersOpen    int     `json:"breakers_open"`
		ShedRate        float64 `json:"shed_rate"`
	} `json:"resilience"`

	// Formats.Conversions is always 0: solves run on CSR alone, and the
	// benchmark still reads it until ROADMAP items 3(a) and 4 drop it.
	Formats struct {
		Conversions int64 `json:"conversions_total"`
	} `json:"formats"`

	// Tune summarizes the autotuning subsystem: how method:"auto" requests
	// resolved and what the trial schedule has been doing.
	Tune struct {
		Requests        int64 `json:"requests_total"`
		StoreHits       int64 `json:"store_hits_total"`
		StoreMisses     int64 `json:"store_misses_total"`
		Trials          int64 `json:"trials_total"`
		TrialBreakdowns int64 `json:"trial_breakdowns_total"`
		Runs            int64 `json:"runs_total"`
		StoreErrors     int64 `json:"store_errors_total"`
		StoreEntries    int   `json:"store_entries"`
	} `json:"tune"`

	// Kernels exposes the shared worker-pool engine's counters (process-wide,
	// not per-request): pool dispatches vs inline fallbacks, how often the
	// fused Gram/combine/basis-step kernels ran, and the effective worker
	// count — the observability hook for verifying fusion is engaged in
	// production, not just in benchmarks.
	Kernels pool.Stats `json:"kernels"`

	Latency map[string]LatencySnapshot `json:"latency"`
}

func (m *metrics) snapshot(start time.Time, cache *setupCache, matrices *registry) MetricsSnapshot {
	var s MetricsSnapshot
	s.UptimeS = time.Since(start).Seconds()
	s.InFlight = int64(m.inFlight.Value())
	s.QueueDepth = m.queued.Load() - s.InFlight
	if s.QueueDepth < 0 {
		s.QueueDepth = 0
	}
	s.RequestsTotal = m.requests.Value()
	s.Rejected = m.rejected.Value()
	s.Completed = m.completed.Value()
	s.Failed = m.failed.Value()
	s.Cancelled = m.cancelled.Value()
	hits, misses, entries := cache.stats()
	s.SetupCache.Hits = hits
	s.SetupCache.Misses = misses
	if hits+misses > 0 {
		s.SetupCache.HitRate = float64(hits) / float64(hits+misses)
	}
	s.SetupCache.Entries = entries
	s.Registry.Matrices, s.Registry.Bytes = matrices.residency()
	s.Batching.SoloSolves = m.soloSolves.Value()
	s.Solver.IterationsTotal = m.iterations.Value()
	s.Solver.MVProductsTotal = m.mvProducts.Value()
	s.Solver.PrecAppliesTotal = m.precApplies.Value()
	s.Resilience.SolverPanics = m.panics.Value()
	s.Resilience.Stagnated = m.stagnated.Value()
	s.Resilience.DegradedSolves = m.degraded.Value()
	s.Resilience.BreakerOpened = m.breakerOpened.Value()
	s.Resilience.BreakerRestored = m.breakerRestored.Value()
	if m.srv != nil {
		s.Resilience.Health = m.srv.Health().String()
		if m.srv.breakers != nil {
			s.Resilience.BreakersOpen = m.srv.breakers.OpenCount()
		}
		s.Resilience.ShedRate = m.srv.shed.Rate()
	}
	s.Tune.Requests = m.tuneRequests.Value()
	s.Tune.StoreHits = m.tuneStoreHits.Value()
	s.Tune.StoreMisses = m.tuneStoreMisses.Value()
	s.Tune.Trials = m.tuneTrials.Value()
	s.Tune.TrialBreakdowns = m.tuneBreakdowns.Value()
	s.Tune.Runs = m.tuneRuns.Value()
	s.Tune.StoreErrors = m.tuneStoreErrors.Value()
	if m.srv != nil {
		s.Tune.StoreEntries = m.srv.tuner.store.Len()
	}
	s.Kernels = pool.ReadStats()
	s.Latency = map[string]LatencySnapshot{}
	m.mu.Lock()
	defer m.mu.Unlock()
	for method, h := range m.latency {
		hs := h.Snapshot()
		count := hs.Count
		if count < 1 {
			count = 1
		}
		s.Latency[method] = LatencySnapshot{
			Count:  hs.Count,
			MeanMS: 1000 * hs.Sum / float64(count),
			P50MS:  1000 * hs.Quantile(0.50),
			P95MS:  1000 * hs.Quantile(0.95),
			P99MS:  1000 * hs.Quantile(0.99),
			MaxMS:  1000 * hs.Max,
		}
	}
	return s
}
