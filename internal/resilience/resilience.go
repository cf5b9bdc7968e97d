// Package resilience provides the building blocks the solve service uses to
// survive numerical and operational faults: a per-key circuit breaker with
// half-open probes, a health state machine, a sliding-window rate tracker for
// load shedding, and a panic-capture helper that converts panics into
// stack-tagged errors. A solve that stops making progress is not its
// concern: the solver ends it with a stagnation breakdown
// (solver.SiteStagnation), counted in iterations.
//
// The package is deliberately free of service types: keys are opaque tuples,
// and all types are safe for concurrent use. See docs/RESILIENCE.md for how
// internal/service wires these together.
package resilience

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// Key identifies one circuit: a (matrix fingerprint, method, s) tuple. Solves
// of the same matrix with a different method or block size fail independently,
// so they trip independently.
type Key struct {
	Fingerprint uint64
	Method      string
	S           int
}

func (k Key) String() string {
	return fmt.Sprintf("%s(s=%d)@%016x", k.Method, k.S, k.Fingerprint)
}

// BreakerState is the classic three-state circuit-breaker automaton.
type BreakerState int

const (
	// BreakerClosed: requests flow normally; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the fast path is disabled until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe request is in flight; its outcome decides
	// whether the circuit closes again or re-opens for another cooldown.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes the breaker collection.
type BreakerConfig struct {
	// Failures is the number of consecutive failures that opens a circuit
	// (default 3).
	Failures int
	// Cooldown is how long an open circuit waits before admitting a
	// half-open probe (default 30s).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Failures <= 0 {
		c.Failures = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	return c
}

// Transition reports what a Record call did to the circuit.
type Transition int

const (
	// NoTransition: the circuit state did not change category.
	NoTransition Transition = iota
	// Opened: the circuit opened (or a failed probe re-opened it).
	Opened
	// Restored: a success closed a previously open/half-open circuit.
	Restored
)

type breaker struct {
	state    BreakerState
	fails    int
	openedAt time.Time
}

// Breakers is a collection of per-Key circuit breakers. Circuits are created
// lazily on first Record; a Key never recorded is closed by definition.
type Breakers struct {
	mu  sync.Mutex
	cfg BreakerConfig
	m   map[Key]*breaker
}

// NewBreakers creates an empty collection.
func NewBreakers(cfg BreakerConfig) *Breakers {
	return &Breakers{cfg: cfg.withDefaults(), m: make(map[Key]*breaker)}
}

// Allow reports whether a request for key may take its fast path now. When an
// open circuit's cooldown has elapsed, the first Allow admits the caller as
// the half-open probe (probe=true) and subsequent callers are refused until
// the probe's outcome is Recorded.
func (b *Breakers) Allow(key Key, now time.Time) (allowed, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.m[key]
	if br == nil || br.state == BreakerClosed {
		return true, false
	}
	if br.state == BreakerOpen && now.Sub(br.openedAt) >= b.cfg.Cooldown {
		br.state = BreakerHalfOpen
		return true, true
	}
	return false, false
}

// Peek reports whether a request for key would be allowed now, without
// mutating the circuit: unlike Allow, an open circuit whose cooldown has
// elapsed stays open and its half-open probe slot is not consumed. Advisory
// callers (the autotuner ranking candidate configurations) use Peek so that
// merely *considering* a configuration never spends the probe admission the
// real request path relies on.
func (b *Breakers) Peek(key Key, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.m[key]
	if br == nil || br.state == BreakerClosed {
		return true
	}
	return br.state == BreakerOpen && now.Sub(br.openedAt) >= b.cfg.Cooldown
}

// Record notes the outcome of a solve that was Allowed for key. A success
// resets the failure count and closes the circuit; a failure increments it,
// opening the circuit after cfg.Failures consecutive failures, and a failed
// half-open probe re-opens immediately for another cooldown.
func (b *Breakers) Record(key Key, success bool, now time.Time) Transition {
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.m[key]
	if br == nil {
		br = &breaker{}
		b.m[key] = br
	}
	if success {
		prev := br.state
		br.state = BreakerClosed
		br.fails = 0
		if prev != BreakerClosed {
			return Restored
		}
		return NoTransition
	}
	switch br.state {
	case BreakerHalfOpen:
		br.state = BreakerOpen
		br.openedAt = now
		return Opened
	case BreakerClosed:
		br.fails++
		if br.fails >= b.cfg.Failures {
			br.state = BreakerOpen
			br.openedAt = now
			return Opened
		}
	case BreakerOpen:
		// A straggler failure from a request admitted before the circuit
		// opened: refresh the cooldown so the probe waits for quiet.
		br.openedAt = now
	}
	return NoTransition
}

// OpenCount reports how many circuits currently deny their fast path
// (open or half-open).
func (b *Breakers) OpenCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, br := range b.m {
		if br.state != BreakerClosed {
			n++
		}
	}
	return n
}

// OpenBreaker describes one non-closed circuit for health reporting.
type OpenBreaker struct {
	Key   Key
	State BreakerState
}

// Open lists the circuits currently denying their fast path.
func (b *Breakers) Open() []OpenBreaker {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []OpenBreaker
	for k, br := range b.m {
		if br.state != BreakerClosed {
			out = append(out, OpenBreaker{Key: k, State: br.state})
		}
	}
	return out
}

// Health is the service-level health state machine.
type Health int

const (
	// Healthy: full service, all circuits closed, no recent shedding.
	Healthy Health = iota
	// Degraded: serving, but some circuits are open or admissions are being
	// shed — clients should expect fallback methods and retry backpressure.
	Degraded
	// Draining: shutting down; no new work is admitted.
	Draining
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Draining:
		return "draining"
	default:
		return "unknown"
	}
}

// RateWindow counts events over a sliding window of one-second buckets, e.g.
// shed admissions for the health state machine. The zero value is unusable;
// use NewRateWindow.
type RateWindow struct {
	mu      sync.Mutex
	buckets []int64
	seconds []int64 // unix second each bucket last counted for
}

// NewRateWindow creates a window spanning the given number of seconds
// (minimum 1).
func NewRateWindow(seconds int) *RateWindow {
	if seconds < 1 {
		seconds = 1
	}
	return &RateWindow{
		buckets: make([]int64, seconds),
		seconds: make([]int64, seconds),
	}
}

// Add counts n events now.
func (w *RateWindow) Add(n int64) {
	now := time.Now().Unix()
	w.mu.Lock()
	i := int(now % int64(len(w.buckets)))
	if w.seconds[i] != now {
		w.seconds[i] = now
		w.buckets[i] = 0
	}
	w.buckets[i] += n
	w.mu.Unlock()
}

// Rate returns the events-per-second average over the window.
func (w *RateWindow) Rate() float64 {
	now := time.Now().Unix()
	horizon := now - int64(len(w.buckets))
	w.mu.Lock()
	var sum int64
	for i := range w.buckets {
		if w.seconds[i] > horizon {
			sum += w.buckets[i]
		}
	}
	w.mu.Unlock()
	return float64(sum) / float64(len(w.buckets))
}

// ErrPanic tags errors produced by Safe from recovered panics.
var ErrPanic = errors.New("resilience: recovered panic")

// maxStackBytes bounds the stack captured into a panic error so a deep panic
// cannot bloat job results or logs.
const maxStackBytes = 4096

// Safe runs fn and converts a panic into an ErrPanic-wrapped error carrying
// the panic value and a truncated stack, so one faulty solve cannot take the
// whole process down.
func Safe(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			stack := debug.Stack()
			if len(stack) > maxStackBytes {
				stack = stack[:maxStackBytes]
			}
			// When the panic value is an error, wrap it so callers can still
			// match it with errors.Is/As through the ErrPanic envelope (the
			// spmd poison protocol panics with a sentinel error and relies on
			// recovering it by identity).
			if pe, ok := p.(error); ok {
				err = fmt.Errorf("%w: %w\n%s", ErrPanic, pe, stack)
			} else {
				err = fmt.Errorf("%w: %v\n%s", ErrPanic, p, stack)
			}
		}
	}()
	fn()
	return nil
}
