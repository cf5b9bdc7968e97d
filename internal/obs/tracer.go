// Package obs is the solver stack's zero-dependency observability layer:
// a low-overhead phase tracer (ring-buffered spans, pay-for-use) and a typed
// metrics registry with Prometheus text exposition.
//
// The paper's entire argument is about where time goes — collective counts
// per iteration (Table 1), per-phase runtime (Table 3), the strong-scaling
// breakdown (Figure 1) — so the tracer's unit of record is the *solver
// phase*: basis construction, Gram/local reductions, block updates,
// preconditioner applications, collectives. Solvers emit spans through an
// optional *Tracer; a nil Tracer is valid everywhere and reduces every
// emission site to a single predictable branch, keeping the Dot/Axpy hot
// path at its uninstrumented cost.
//
// Concurrency: all Tracer methods are safe for concurrent use (one mutex per
// emission). A Tracer is cheap enough to create per solve, which is how the
// solve service attributes phases per request.
package obs

import (
	"sync"
	"time"
)

// Phase identifies one stage of the solve pipeline. The set mirrors the cost
// components of the paper's Tables 1 and 3: matrix-vector products,
// preconditioner applications, basis construction, local reductions (Gram
// matrices and fused dots), block vector updates, BLAS1 vector work and
// global collectives.
type Phase uint8

const (
	// PhaseSpMV covers sparse matrix–vector products outside the matrix
	// powers kernel.
	PhaseSpMV Phase = iota
	// PhasePrec covers preconditioner applications M⁻¹·v outside the matrix
	// powers kernel.
	PhasePrec
	// PhaseBasis covers basis construction: one span per matrix-powers
	// call, its SpMVs, preconditioner applications and three-term
	// combines included, whether the backend fuses them or not.
	PhaseBasis
	// PhaseGram covers local reduction work: fused Gram matrices, moment
	// dots and the local halves of globally reduced inner products
	// (Table 1's "local reductions" column).
	PhaseGram
	// PhaseBlockUpdate covers the BLAS3-style tall-skinny block updates
	// (P/AP recurrences, x += P·a, r −= AP·a).
	PhaseBlockUpdate
	// PhaseVector covers BLAS1 vector operations (axpy, xpay, three-term
	// vector updates, residual assembly).
	PhaseVector
	// PhaseCollective counts global reductions. Spans carry the reduced
	// payload (float64 values) in Payload; in shared memory the duration is
	// the bookkeeping cost only, the *count* is the scalability signal.
	PhaseCollective
	// PhaseScalarWork covers the small s×s dense factorizations and solves
	// (the "Scalar Work" of Algorithm 6).
	PhaseScalarWork
	// NumPhases is the number of defined phases.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"spmv", "prec", "basis", "gram", "block_update", "vector",
	"collective", "scalar_work",
}

// String returns the phase's stable snake_case name (used in JSON exports,
// the breakdown table and docs/OBSERVABILITY.md).
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Span is one recorded phase interval. Start is nanoseconds since the
// tracer's creation; counting-only events (collectives) have Dur == 0 and
// carry their magnitude in Payload.
type Span struct {
	Phase   Phase `json:"-"`
	Start   int64 `json:"start_ns"`
	Dur     int64 `json:"dur_ns"`
	Payload int64 `json:"payload,omitempty"`
}

// agg accumulates one phase's totals; kept alongside the ring so breakdowns
// remain exact even after the ring wraps.
type agg struct {
	count   int64
	nanos   int64
	payload int64
}

// Tracer records phase spans into a fixed-capacity ring buffer and exact
// per-phase aggregates. The zero capacity passed to New defaults to 4096
// spans; when the ring wraps, the oldest spans are dropped (and counted in
// Breakdown's SpansDropped) while the aggregates keep every event.
//
// A nil *Tracer is valid: every method no-ops, and Begin returns the zero
// time so emission sites pay only the nil check.
type Tracer struct {
	epoch time.Time

	mu      sync.Mutex
	ring    []Span
	next    uint64 // total spans emitted (ring index = next % cap)
	agg     [NumPhases]agg
	dropped uint64
}

// DefaultRingCapacity is the span ring size used when New is given cap <= 0.
const DefaultRingCapacity = 4096

// New creates a Tracer whose ring holds capacity spans (<= 0 selects
// DefaultRingCapacity).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Tracer{epoch: time.Now(), ring: make([]Span, 0, capacity)}
}

// Begin returns the start timestamp for a span about to be emitted with End.
// On a nil tracer it returns the zero time without reading the clock, so a
// disabled emission site costs one branch.
func (t *Tracer) Begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// End records a span of the given phase that began at start (a value from
// Begin). No-op on a nil tracer.
func (t *Tracer) End(p Phase, start time.Time) {
	if t == nil {
		return
	}
	t.emit(p, start, 0)
}

// Count records a zero-duration counting event of the given phase — the form
// collectives take, where the count and payload are the signal and the time
// exists only in the distributed cost model. No-op on a nil tracer.
func (t *Tracer) Count(p Phase, payload int64) {
	if t == nil {
		return
	}
	now := time.Now()
	t.append(Span{Phase: p, Start: now.Sub(t.epoch).Nanoseconds(), Payload: payload})
}

func (t *Tracer) emit(p Phase, start time.Time, payload int64) {
	dur := time.Since(start).Nanoseconds()
	t.append(Span{Phase: p, Start: start.Sub(t.epoch).Nanoseconds(), Dur: dur, Payload: payload})
}

func (t *Tracer) append(sp Span) {
	t.mu.Lock()
	if cap(t.ring) == 0 { // zero-value Tracer: aggregate only
		t.aggregateLocked(sp)
		t.mu.Unlock()
		return
	}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, sp)
	} else {
		t.ring[t.next%uint64(cap(t.ring))] = sp
		t.dropped++
	}
	t.next++
	t.aggregateLocked(sp)
	t.mu.Unlock()
}

func (t *Tracer) aggregateLocked(sp Span) {
	if sp.Phase >= NumPhases {
		return
	}
	a := &t.agg[sp.Phase]
	a.count++
	a.nanos += sp.Dur
	a.payload += sp.Payload
}

// Spans returns the retained spans in emission order, oldest first. When the
// ring has wrapped, only the most recent capacity spans remain.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.ring)
	out := make([]Span, 0, n)
	if t.next <= uint64(n) { // not wrapped
		return append(out, t.ring...)
	}
	head := int(t.next % uint64(cap(t.ring)))
	out = append(out, t.ring[head:]...)
	out = append(out, t.ring[:head]...)
	return out
}

// Reset clears the ring, the aggregates and the drop counter, and restarts
// the epoch. No-op on a nil tracer.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring = t.ring[:0]
	t.next = 0
	t.dropped = 0
	t.agg = [NumPhases]agg{}
	t.epoch = time.Now()
	t.mu.Unlock()
}
