package service

import (
	"fmt"
	"sync"

	"spcg/internal/fault"
	"spcg/internal/solver"
)

// ChaosConfig enables service-level fault injection for chaos testing: the
// daemon attacks its own solves with injected panics and solver soft errors
// while the resilience layer (panic isolation) must keep every job terminal
// and the process alive. Both streams are seeded, so a chaos run is
// reproducible. (A served solve has neither a cluster nor ranks, so
// communication faults are not a daemon concern.)
type ChaosConfig struct {
	// Seed seeds the panic and soft-error streams (default 1).
	Seed uint64
	// PanicProb is the per-job probability of an injected panic inside
	// the worker, exercising panic isolation (0 disables).
	PanicProb float64
	// Fault configures the solver-level soft-error injector installed into
	// every solve (the zero value injects nothing; see internal/fault).
	Fault fault.Config
}

// chaosDetectEvery arms the solvers' corruption detection + rollback every
// that many (outer) iterations of a solve that Fault injects into, so
// injected soft errors are survivable rather than guaranteed breakdowns.
const chaosDetectEvery = 10

// chaosState owns the server's fault-injection machinery. A nil *chaosState
// is inert: every method no-ops.
type chaosState struct {
	cfg ChaosConfig
	inj *fault.Injector

	mu     sync.Mutex
	rng    *fault.Stream // the panic draws
	panics int64
}

func newChaosState(cfg ChaosConfig) *chaosState {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c := &chaosState{cfg: cfg, rng: fault.NewStream(cfg.Seed)}
	if cfg.Fault != (fault.Config{}) {
		c.inj = fault.New(cfg.Seed, cfg.Fault)
	}
	return c
}

// maybePanic injects a panic with the configured probability. Called from
// the worker goroutine inside the resilience.Safe guard, so an injected
// panic becomes a failed job, never a daemon crash.
func (c *chaosState) maybePanic(jobID string) {
	if c == nil || c.cfg.PanicProb <= 0 {
		return
	}
	c.mu.Lock()
	fire := c.rng.Unit() < c.cfg.PanicProb
	if fire {
		c.panics++
	}
	c.mu.Unlock()
	if fire {
		panic(fmt.Sprintf("chaos: injected panic (%s)", jobID))
	}
}

// arm installs the shared soft-error injector (concurrency-safe by
// construction) into one solve's options.
func (c *chaosState) arm(opts *solver.Options) {
	if c == nil || c.inj == nil {
		return
	}
	opts.Injector = c.inj
	if opts.DetectEvery == 0 {
		opts.DetectEvery = chaosDetectEvery
	}
}

// injectedPanics reports how many panics the chaos layer has fired.
func (c *chaosState) injectedPanics() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return float64(c.panics)
}
