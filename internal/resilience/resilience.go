// Package resilience provides the building blocks the solve service uses to
// survive operational faults: a health state machine (Health), a
// sliding-window rate tracker for load shedding (RateWindow), and a
// panic-capture helper that converts panics into stack-tagged errors (Safe).
// A numerical failure is not its concern: a solve that breaks down or stops
// making progress is reported to its client under the method it asked for
// (the solver ends a stalled one with a stagnation breakdown,
// solver.SiteStagnation, counted in iterations).
//
// The package is deliberately free of service types, and all types are safe
// for concurrent use. See docs/RESILIENCE.md for how internal/service wires
// these together.
package resilience

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// Health is the service-level health state machine.
type Health int

const (
	// Healthy: full service, no recent shedding.
	Healthy Health = iota
	// Degraded: serving, but admissions were shed within the rate window —
	// clients should expect retry backpressure.
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
