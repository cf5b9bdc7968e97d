package solver

import (
	"errors"
	"fmt"
	"math"

	"spcg/internal/basis"
	"spcg/internal/eig"
)

// boundary is every method's convergence check: at the end of a PCG or PCG3
// iteration, and at an s-step method's block boundary; step counts the
// iterations or blocks done. It forms b − A·x at most once, and only when a
// consumer is due: a detection probe (every Options.DetectEvery checks), or
// the true-residual criterion where its gate is open (trueDue). A probe that
// passes checkpoints (x, r); one that fails rolls back (recovered). It then
// tests the criterion value — the norm of b − A·x, √‖r‖² from rr, or
// √(rᵀM⁻¹r) from rho — and returns it with the loop's verdict: resumed after
// a rollback (continue from the checkpoint), stop when converged or out of
// rollbacks.
//
// Under the true-residual criterion a check whose gate is closed and that no
// probe needs records √‖r‖² as a stand-in. The gate is closed only while that
// value is above trueGate·tol, so a stand-in never passes: the run stops only
// on a b − A·x that meets tol.
func (c *ctx) boundary(step int, x, r []float64, rho, rr float64) (value float64, resumed, stop bool) {
	probe := c.guard != nil && step > 0 && step%c.guard.every == 0
	var res []float64
	if probe || c.trueDue(rr) {
		res = c.explicitResidual(x)
	}
	if probe {
		if c.corrupted(res, r) {
			ok := c.recovered(siteProbe, "r departs from b − A·x at step %d", step)
			return 0, ok, !ok
		}
		c.checkpoint(x, r)
	}
	c.standIn = false
	switch c.opts.Criterion {
	case TrueResidual2Norm:
		if res != nil {
			value = math.Sqrt(c.dot(res, res))
		} else {
			value, c.standIn = math.Sqrt(rr), true
		}
	case RecursiveResidual2Norm:
		value = math.Sqrt(rr)
	default: // RecursiveResidualMNorm: free, every solver already has rᵀu
		value = math.Sqrt(rho)
	}
	return value, false, c.done(value)
}

// trueGate is how far above the target, in units of tol·‖r⁰‖, the recursive
// residual 2-norm opens the true-residual criterion's gate. The recursive
// residual tracks b − A·x up to a gap that Carson's bound (arXiv 1701.03989)
// ties to κ·ε, so outside the last decade before tol the explicit product
// decides nothing. At 10, all 40 rows of Table 2 (`spcgbench table2 -scale 64
// -maxiters 3000`: three s-step methods on two bases, and PCG) and the seven
// true-criterion pins stop at the same check, on the same x bits, as when
// b − A·x is formed at every check, while PCG forms it on 10 of the pinned
// run's 119 iterations instead of all of them.
const trueGate = 10

// tolFloor is the smallest tolerance the gate takes at face value. No
// relative residual below the unit roundoff is attainable, so under a smaller
// tol (a request meant to run until it stalls) the gate opens at
// trueGate·ε·‖r⁰‖, and the stagnation window watches b − A·x at its floor
// instead of a stand-in that keeps shrinking: PCG without a preconditioner on
// poisson2d:128 at tol 1e-300 reaches its 2.4e-12 floor by iteration 294 and
// stagnates at 741, where the stand-in gained 1 % at least every 148
// iterations down to 5.5e-164 and stagnated at 5 663.
const tolFloor = 0x1p-52

// trueDue reports whether the true-residual criterion forms b − A·x at this
// check: at the run's first check, at the check that spends the iteration cap
// (so a capped run, a tuning probe among them, ends on the true value in
// History), and wherever the recursive ‖r‖ is within trueGate of the target
// (floored at tolFloor) — or not a number, which no gate can rule out.
func (c *ctx) trueDue(rr float64) bool {
	return c.opts.Criterion == TrueResidual2Norm &&
		(c.nchecks == 0 || c.stats.Iterations-c.iterBase >= c.opts.MaxIterations ||
			!(math.Sqrt(rr) > trueGate*max(c.opts.Tol, tolFloor)*c.initial))
}

// twoNorm reports whether the criterion reads ‖r‖²: the recursive 2-norm as
// its value, the true one for its gate. Either way the local dot rides in a
// collective the method pays already.
func (c *ctx) twoNorm() bool { return c.opts.Criterion != RecursiveResidualMNorm }

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
// initial value — which the first call establishes — records History and
// BestRelative, and reports whether the run stops here: converged (recorded
// in Stats.Converged), or stagnated. A zero initial value converges
// immediately (x⁰ already solves the system). Callers set stats.Iterations
// before calling done, so the stagnation window counts the iteration the
// value belongs to.
func (c *ctx) done(value float64) bool {
	st := c.stats
	if c.nchecks == 0 {
		c.initial = value
		st.BestRelative, c.gainRel = math.Inf(1), math.Inf(1)
	}
	rel := 0.0
	if c.initial > 0 {
		rel = value / c.initial
	}
	st.FinalRelative = rel
	if rel < st.BestRelative {
		st.BestRelative = rel
	}
	st.History = append(st.History, rel)
	c.nchecks++
	st.Converged = rel <= c.opts.Tol
	return st.Converged || c.stagnated(rel)
}

// stagnationIters is the stagnation window: a run whose checks have not
// beaten the value at its last gain by stagnationGain for this many
// PCG-equivalent iterations ends with a stagnation breakdown. An
// attainable-accuracy floor (Carson's κ·ε residual gap, arXiv 1701.03989), a
// diverging basis and a tolerance below the floor look alike here: none
// improves on its best. The longest such stretch in a run that converges is
// 100 iterations among Table 2's 280 solves (`spcgbench table2 -scale 64
// -maxiters 3000`), 172 among Table 3's 56 (`table3 -scale 32`), 120 in the
// ablation and 0 in Fig. 1; 400 keeps a 2.3× margin over them and ends 77 of
// Table 2's 161 failing runs early, 28 % of the table's iterations.
// Iterations are the unit, so PCG and the s-step methods share one window,
// and the rule reads only reduced values, so ranks decide alike.
const stagnationIters = 400

// stagnationGain is the fraction by which a check must beat the value at the
// last gain to count as progress.
const stagnationGain = 0.01

// stagnated applies the stagnation window to the value done just recorded.
// A NaN never counts as a gain.
func (c *ctx) stagnated(rel float64) bool {
	it := c.stats.Iterations
	if rel < (1-stagnationGain)*c.gainRel {
		c.gainRel, c.gainAt = rel, it
		return false
	}
	if it-c.gainAt < stagnationIters {
		return false
	}
	c.breakdown(SiteStagnation, "no residual progress since iteration %d: relative %.3g at iteration %d, best %.3g",
		c.gainAt, rel, it, c.stats.BestRelative)
	return true
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
	siteProbe    = "probe"              // a detection probe flagged r ≠ b − A·x (named in rollback-budget's detail)
	// SiteStagnation is where a run without progress ends: no
	// stagnationGain within stagnationIters iterations.
	SiteStagnation = "stagnation"
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
