// Package fault is the seeded fault-injection substrate for the resilience
// layer: it produces the system-level failure modes that the paper's s-step
// methods are most exposed to on large machines (see PAPERS.md,
// arXiv:2501.03743), all reproducible from a single seed. The Injector makes
// soft errors (silent data corruption of SpMV outputs or vectors); transient
// communication failures and straggler ranks are modeled by dist.FaultModel
// on the virtual cluster. It substitutes for the fault-tolerance machinery an MPI run would get
// from ULFM/checkpoint libraries (see DESIGN.md, "Substitutions").
//
// Stream is the module's one fault stream: the Injector, the modeled retries
// of dist.Tracker and the serving daemon's chaos panics all draw from one.
//
// A nil *Injector is valid and injects nothing, so fault injection is
// strictly opt-in: every consumer guards with the nil receiver, and the
// zero-cost disabled path is byte-identical to a build without this package.
//
// The Injector is safe for concurrent use (the serving daemon shares one
// between its concurrent solves); determinism of the *stream* is guaranteed
// only for deterministic call orders, which a sequential solve has.
package fault

import (
	"fmt"
	"math"
	"sync"
)

// Config selects which faults the Injector produces and how severe they are.
// The zero value injects nothing.
type Config struct {
	// SpMVCorruptProb is the per-SpMV probability that one output element is
	// silently corrupted (a soft error striking the multiply).
	SpMVCorruptProb float64
	// VectorCorruptProb is the per-call probability used by CorruptVector for
	// faults injected into solver state vectors directly.
	VectorCorruptProb float64
	// CorruptMagnitude scales additive perturbations: the victim element v
	// becomes v ± CorruptMagnitude·(1+|v|). Default 1e4 — large enough to be
	// detectable, small enough not to overflow. Ignored when BitFlip is set.
	CorruptMagnitude float64
	// BitFlip, when true, flips bit Bit of the victim element's IEEE-754
	// representation instead of perturbing additively — the classic silent
	// data corruption model.
	BitFlip bool
	// Bit is the bit index flipped by BitFlip (0 = mantissa LSB, 52–62 =
	// exponent). Default 54: multiplies the value by 2^±4.
	Bit int
}

func (c Config) withDefaults() Config {
	if c.CorruptMagnitude <= 0 {
		c.CorruptMagnitude = 1e4
	}
	if c.Bit <= 0 || c.Bit > 62 {
		c.Bit = 54
	}
	return c
}

// Counts reports what an Injector actually injected.
type Counts struct {
	// SpMVCorruptions and VectorCorruptions count injected soft errors.
	SpMVCorruptions, VectorCorruptions int
}

// Total returns the total number of injected faults of all kinds.
func (c Counts) Total() int {
	return c.SpMVCorruptions + c.VectorCorruptions
}

// Stream is the seeded splitmix64 stream every fault draw in this module
// comes from: the Injector's corruptions, the modeled
// retries of dist.Tracker and the chaos panics of the serving daemon. A
// Stream is not safe for concurrent use; a holder shared between goroutines
// guards it with its own lock.
type Stream struct{ state uint64 }

// NewStream returns the stream determined by seed.
func NewStream(seed uint64) *Stream { return &Stream{state: seed} }

// next advances the stream and returns 64 pseudo-random bits.
func (s *Stream) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Unit returns the next draw in [0, 1).
func (s *Stream) Unit() float64 { return float64(s.next()>>11) / (1 << 53) }

// Injector draws faults from one seeded Stream. Create with New; nil is
// valid and injects nothing.
type Injector struct {
	mu     sync.Mutex
	cfg    Config
	rng    Stream
	counts Counts
}

// New returns an Injector whose entire fault stream is determined by seed.
func New(seed uint64, cfg Config) *Injector {
	return &Injector{cfg: cfg.withDefaults(), rng: Stream{state: seed}}
}

// corrupt applies one soft error to v (assumed non-empty): either a bit flip
// or an additive perturbation at a pseudo-random index.
func (in *Injector) corrupt(v []float64) {
	idx := int(in.rng.next() % uint64(len(v)))
	if in.cfg.BitFlip {
		bits := math.Float64bits(v[idx]) ^ (1 << uint(in.cfg.Bit))
		v[idx] = math.Float64frombits(bits)
		return
	}
	mag := in.cfg.CorruptMagnitude * (1 + math.Abs(v[idx]))
	if in.rng.next()&1 == 0 {
		mag = -mag
	}
	v[idx] += mag
}

// CorruptSpMV possibly injects one soft error into an SpMV output vector and
// reports whether it did. Nil-safe.
func (in *Injector) CorruptSpMV(v []float64) bool {
	if in == nil || len(v) == 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cfg.SpMVCorruptProb <= 0 || in.rng.Unit() >= in.cfg.SpMVCorruptProb {
		return false
	}
	in.corrupt(v)
	in.counts.SpMVCorruptions++
	return true
}

// CorruptVector possibly injects one soft error into a solver state vector
// and reports whether it did. Nil-safe.
func (in *Injector) CorruptVector(v []float64) bool {
	if in == nil || len(v) == 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cfg.VectorCorruptProb <= 0 || in.rng.Unit() >= in.cfg.VectorCorruptProb {
		return false
	}
	in.corrupt(v)
	in.counts.VectorCorruptions++
	return true
}

// Counts returns a snapshot of everything injected so far. Nil-safe.
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}

// String summarizes the injected faults.
func (in *Injector) String() string {
	c := in.Counts()
	return fmt.Sprintf("fault.Injector(spmv=%d vector=%d)", c.SpMVCorruptions, c.VectorCorruptions)
}
