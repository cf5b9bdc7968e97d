package solver

import (
	"errors"
	"fmt"
	"math"

	"spcg/internal/basis"
	"spcg/internal/eig"
)

// critValue maps the scalars a method has in hand after an update — rᵀM⁻¹r
// and, under the 2-norm criterion, ‖r‖² — to the configured criterion's
// norm-like value. Only the true-residual criterion costs anything here: one
// explicit residual per check.
func (c *ctx) critValue(x []float64, rho, rr float64) float64 {
	switch c.opts.Criterion {
	case TrueResidual2Norm:
		return c.trueResidualNorm(x)
	case RecursiveResidual2Norm:
		return math.Sqrt(rr)
	default: // RecursiveResidualMNorm: free, every solver already has rᵀu
		return math.Sqrt(rho)
	}
}

// initialCriterion computes the criterion's reference value for the initial
// state of the per-iteration methods, which check x⁰ before their loop. False
// means a breakdown was recorded.
func (c *ctx) initialCriterion(r []float64, rho float64) (float64, bool) {
	if c.opts.Criterion == RecursiveResidualMNorm {
		return math.Sqrt(math.Max(rho, 0)), true
	}
	// ‖r⁰‖₂: the true and recursive residuals coincide initially.
	v := c.dot(r, r)
	if !finite(v) {
		c.breakdown(siteResidual, "initial ‖r‖² = %v", v)
		return 0, false
	}
	return math.Sqrt(v), true
}

// done evaluates the criterion for the given norm-like value against its
// initial value — which the first call establishes — records history and
// heartbeat stats, mirrors the check to Options.OnProgress, and reports (and
// records) convergence. A zero initial value converges immediately (x⁰
// already solves the system). Callers set stats.Iterations before calling
// done, so the hook sees the iteration the value belongs to.
func (c *ctx) done(value float64) bool {
	st := c.stats
	if c.nchecks == 0 {
		c.initial = value
		st.BestRelative = math.Inf(1)
	}
	rel := 0.0
	if c.initial > 0 {
		rel = value / c.initial
	}
	st.FinalRelative = rel
	if rel < st.BestRelative {
		st.BestRelative = rel
	}
	st.Heartbeats++
	st.History = append(st.History, rel)
	c.nchecks++
	if c.opts.OnProgress != nil {
		c.opts.OnProgress(st.Iterations, rel)
	}
	st.Converged = rel <= c.opts.Tol
	return st.Converged
}

// blocksSpent reports whether an s-step method that has completed k outer
// iterations of s steps has used up Options.MaxIterations.
func (c *ctx) blocksSpent(k int) bool {
	return k*c.opts.S >= c.opts.MaxIterations
}

// Breakdown sites: where in an algorithm a numerical breakdown was detected.
const (
	siteRho      = "rho-negative"       // rᵀM⁻¹r negative or non-finite
	siteCurv     = "curvature"          // pᵀAp (or its s-step image) not positive
	siteResidual = "residual-nonfinite" // ‖r‖² non-finite
	siteRecur    = "recurrence"         // a scalar recurrence denominator vanished
	siteMPK      = "mpk"                // the matrix powers kernel failed
	siteWLU      = "w-singular"         // LU of W⁽ᵏ⁻¹⁾ for the B⁽ᵏ⁾ system
	siteGramChol = "gram-cholesky"      // Cholesky solve of the Gram-derived W⁽ᵏ⁾ system
	siteRollback = "rollback-budget"    // recovery gave up
)

// BreakdownError is the numerical breakdown recorded in Stats.Breakdown: the
// site that detected it and what it saw. It wraps ErrBreakdown.
type BreakdownError struct {
	Site   string
	Detail string
}

func (e *BreakdownError) Error() string {
	return fmt.Sprintf("%v [%s]: %s", ErrBreakdown, e.Site, e.Detail)
}

func (e *BreakdownError) Unwrap() error { return ErrBreakdown }

// breakdown records a numerical breakdown at a named site; the run still
// returns the best x reached.
func (c *ctx) breakdown(site, format string, args ...any) {
	c.stats.Breakdown = &BreakdownError{Site: site, Detail: fmt.Sprintf(format, args...)}
}

// recovered is the one failure path of the loops: with recovery enabled and a
// checkpoint in hand it rolls the body's state back and reports true (the
// loop continues); otherwise it records the breakdown and reports false (the
// loop ends). A corrupted iterate can masquerade as a breakdown, so every
// site tries the rollback before giving up.
func (c *ctx) recovered(site, format string, args ...any) bool {
	if c.rollback != nil && c.rollback() {
		c.ahead.drop() // computed from the operand the rollback just replaced
		return true
	}
	c.breakdown(site, format, args...)
	return false
}

// resolveBasis produces the basis parameters for an s-step solver run:
// explicit override, else generated from the (estimated) spectrum of M⁻¹A.
// The spectral estimate runs 2s iterations of standard PCG (paper §5.1) and
// is NOT charged to the tracker, matching the paper's exclusion of the
// estimation cost from runtimes. It reads the whole operator, so only the
// local backend can supply it.
func (c *ctx) resolveBasis() (*basis.Params, error) {
	opts := &c.opts
	if opts.BasisParams != nil {
		if err := opts.BasisParams.Validate(); err != nil {
			return nil, err
		}
		if opts.BasisParams.Degree() < opts.S {
			return nil, fmt.Errorf("%w: basis degree %d < s = %d", ErrDimension, opts.BasisParams.Degree(), opts.S)
		}
		return opts.BasisParams, nil
	}
	if opts.Basis == basis.Monomial {
		return basis.MonomialParams(opts.S), nil
	}
	est := opts.Spectrum
	if est == nil {
		lb, ok := c.be.(*local)
		if !ok {
			return nil, errors.New("solver: this backend cannot estimate a spectrum; pass Options.BasisParams or Options.Spectrum")
		}
		var err error
		est, err = eig.RitzFromPCG(lb.a, lb.ApplyM, eig.Options{Iterations: 2 * opts.S})
		if err != nil {
			return nil, err
		}
	}
	return basis.New(opts.Basis, opts.S, est.LambdaMin, est.LambdaMax, est.Ritz)
}
