// Package solver implements the paper's algorithms: standard PCG (Alg. 1),
// the three-term-recurrence PCG3 baseline, the original monomial-basis
// s-step method sPCGmon (Alg. 2), the paper's contribution sPCG with
// arbitrary basis types (Alg. 5 + 6), CA-PCG (Alg. 3) and CA-PCG3 (Alg. 4).
//
// All solvers share an instrumented execution context: every length-n
// operation is counted and (optionally) charged against a dist.Tracker, so a
// single run yields both the numerical result and the modeled distributed
// cost that the paper's Tables 3 and Figure 1 report.
package solver

import (
	"errors"
	"fmt"

	"spcg/internal/basis"
	"spcg/internal/dist"
	"spcg/internal/eig"
	"spcg/internal/fault"
	"spcg/internal/obs"
)

// Criterion selects the convergence test, matching the three used in the
// paper's evaluation.
type Criterion int

const (
	// TrueResidual2Norm stops when ‖b−Ax‖₂ ≤ tol·‖b−Ax⁰‖₂, computed
	// explicitly (Table 2's criterion). It costs one extra SpMV per check
	// where it can pass: the first, and those where the recursive residual's
	// 2-norm, reduced in a collective the method pays anyway, is within a
	// decade of tol. The other checks record that recursive value, which
	// cannot pass.
	TrueResidual2Norm Criterion = iota
	// RecursiveResidual2Norm uses the recursively updated residual's 2-norm
	// (Table 3 columns 2–5; its local dot is fused into an existing global
	// reduction).
	RecursiveResidual2Norm
	// RecursiveResidualMNorm uses √(rᵀM⁻¹r) of the recursive residual
	// (Table 3 columns 6–9 and Figure 1; free — every solver already
	// computes rᵀu).
	RecursiveResidualMNorm
)

// String names the criterion.
func (c Criterion) String() string {
	switch c {
	case TrueResidual2Norm:
		return "true-2norm"
	case RecursiveResidual2Norm:
		return "recursive-2norm"
	case RecursiveResidualMNorm:
		return "recursive-mnorm"
	default:
		return fmt.Sprintf("solver.Criterion(%d)", int(c))
	}
}

// Options configures a solver run. The zero value is usable: s defaults to
// 10 (the paper's main setting), basis to Chebyshev, tolerance to 1e−9 and
// the iteration cap to 12000, mirroring §5.2.
type Options struct {
	// S is the s-step block size (ignored by PCG/PCG3).
	S int
	// Basis selects the s-step basis type (ignored by PCG/PCG3 and sPCGmon,
	// which is monomial by construction).
	Basis basis.Type
	// BasisParams overrides the generated basis parameters when non-nil.
	BasisParams *basis.Params
	// Spectrum supplies the λ estimates for Chebyshev/Newton bases. When
	// nil and needed, it is computed with eig.RitzFromPCG (the paper's
	// "a few iterations of standard PCG", excluded from timings).
	Spectrum *eig.Estimate
	// Tol is the relative residual reduction (default 1e−9).
	Tol float64
	// MaxIterations caps total PCG-equivalent iterations (default 12000;
	// the paper's divergence cutoff).
	MaxIterations int
	// Criterion selects the convergence test.
	Criterion Criterion
	// Tracker, when non-nil, charges the distributed cost model.
	Tracker *dist.Tracker
	// X0 is the initial guess (default zero vector).
	X0 []float64
	// Injector, when non-nil, injects seeded soft errors into the solver's
	// SpMV outputs and residual updates (see internal/fault). Strictly
	// opt-in: a nil Injector leaves every iterate bit-identical to a run
	// without fault support.
	Injector *fault.Injector
	// DetectEvery enables corruption detection every k convergence checks,
	// on every method — every k iterations of PCG and PCG3, every k outer
	// iterations of the s-step methods: the recursive residual r is compared
	// against an explicitly recomputed b − A·x. Every passed probe
	// checkpoints (x, r), so a rollback never restores corrupted state; a
	// failed probe or a breakdown rolls back and resumes the method from the
	// checkpoint, up to 100 times per run. 0 disables detection.
	DetectEvery int
	// Cancel, when non-nil, requests cooperative cancellation: the solver
	// polls the channel at every (outer) iteration and, once it is closed,
	// stops and returns ErrCancelled together with the partial solution and
	// Stats reached so far. Pass a context's Done() channel to bound the
	// wall-time of a solve (the solve service's deadline plumbing).
	Cancel <-chan struct{}
	// Trace, when non-nil, records per-phase wall-time spans and collective
	// counts into the given tracer (see internal/obs); the aggregated
	// breakdown is returned in Stats.Phases. Strictly pay-for-use: a nil
	// Trace reduces every instrumentation site to one predictable branch.
	// Each matrix-powers call is one basis span; modeled events (halo
	// exchanges included) stay in the Tracker's counts.
	Trace *obs.Tracer
}

// DefaultS is the block size a non-positive Options.S resolves to (the
// paper's main setting). Code that keys on the block size a solve will
// actually run reads it from here.
const DefaultS = 10

func (o Options) withDefaults() Options {
	if o.S <= 0 {
		o.S = DefaultS
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 12000
	}
	return o
}

// Stats reports what a solver run did. Iterations are PCG-equivalent steps
// (s-step methods count s per outer iteration), matching how the paper's
// Table 2 reports them.
type Stats struct {
	// Converged reports whether the criterion was met within the cap.
	Converged bool
	// Iterations is the number of PCG-equivalent iterations at the moment
	// the criterion was met (or the cap/breakdown hit).
	Iterations int
	// OuterIterations counts outer (block) iterations for s-step methods;
	// equals Iterations for PCG/PCG3.
	OuterIterations int
	// FinalRelative is the last criterion value relative to its initial;
	// TrueRelResidual when the true-residual criterion's last check recorded
	// a stand-in.
	FinalRelative float64
	// TrueRelResidual is ‖b−Ax‖₂/‖b−Ax⁰‖₂ of the returned x, always
	// computed once at the end (not charged to the cost model).
	TrueRelResidual float64
	// History holds the relative criterion values at each recorded check.
	// Under the true-residual criterion a check where b − A·x was not formed
	// holds the recursive residual's 2-norm (see TrueResidual2Norm).
	History []float64
	// BestRelative is the smallest relative criterion value observed at any
	// check (+Inf until the first check).
	BestRelative float64
	// MVProducts, PrecApplies, Allreduces, AllreduceValues count the
	// communication-relevant events (also mirrored in the tracker).
	MVProducts, PrecApplies, Allreduces, AllreduceValues int
	// SimTime is the tracker's modeled wall-clock time (0 when untracked).
	SimTime float64
	// Breakdown records the numerical breakdown that stopped the run early,
	// if any (the run still returns the best x reached).
	Breakdown error
	// Restarts counts regression restarts of the s-step block coupling
	// (the search-direction history is dropped when the convergence
	// criterion bounces well above its best value; see SPCG).
	Restarts int
	// DetectedFaults counts detection probes that flagged a corrupted state
	// (Options.DetectEvery > 0).
	DetectedFaults int
	// Rollbacks counts checkpoint restorations performed after detected
	// faults or numerical breakdowns.
	Rollbacks int
	// Phases is the per-phase wall-time/collective breakdown of the run,
	// present only when Options.Trace was set (the aggregate view of the
	// tracer; raw spans stay on the tracer itself).
	Phases []obs.PhaseStat
}

// ErrBreakdown wraps numerical breakdowns (singular Gram systems,
// non-finite coefficients): the condition shown as "-" in the paper's
// Table 2.
var ErrBreakdown = errors.New("solver: numerical breakdown")

// ErrDimension reports mismatched operand sizes.
var ErrDimension = errors.New("solver: dimension mismatch")

// ErrCancelled reports that a solve stopped because Options.Cancel fired.
// Unlike breakdowns it is returned as the error value — but the partial
// solution and Stats are still returned alongside it, so a timed-out request
// can report how far it got. A run whose iterate already satisfies the
// tolerance when cancellation is observed reports convergence instead.
var ErrCancelled = errors.New("solver: cancelled")
