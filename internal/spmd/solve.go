package spmd

import (
	"fmt"

	"spcg/internal/basis"
	"spcg/internal/solver"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// rankBackend is the message-passing execution backend of the solver core:
// one rank's rows, a halo exchange per SpMV, the rank-local Jacobi diagonal
// and Rank.Allreduce. Kernels stay on the rank's goroutine (vec.Serial, and
// the sparse kernels' serial row-range forms) because the ranks are the
// parallelism: a rank that dispatched would only find the team busy with
// another rank's kernel and run its parts inline anyway.
//
// Like the local backend it offers the fused matrix-powers step
// (mpk.ColumnStepper: Jacobi is rank-local, so the fused step applies and
// never declines). A two-column step makes one halo exchange whose message
// to each peer carries both columns, and one pass over the local rows; every
// column is bitwise what SpMV, Threeterm and ApplyM give one at a time.
type rankBackend struct {
	rk   *Rank
	lm   *LocalMatrix
	invD []float64
}

func (r *rankBackend) Rows() int                      { return r.lm.NLocal() }
func (r *rankBackend) SpMV(dst, src []float64)        { r.lm.SpMV(r.rk, dst, src) }
func (r *rankBackend) ApplyM(dst, src []float64)      { vec.HadamardInto(dst, r.invD, src) }
func (r *rankBackend) Reduce(buf []float64) []float64 { return r.rk.Allreduce(buf) }
func (r *rankBackend) Lookahead() bool                { return false }
func (r *rankBackend) Exec() vec.Exec                 { return vec.Serial }

// FusedBasisSteps advances cols[:k]: one halo exchange carrying every
// column's U, then SpMV, recurrence and Jacobi in one pass over the local
// rows, each column's U replaced by its extended vector.
func (r *rankBackend) FusedBasisSteps(cols [2]sparse.BasisCol, k int, theta, mu, gamma float64) bool {
	var us [2][]float64
	for j, c := range cols[:k] {
		us[j] = c.U
	}
	for j, ext := range r.lm.exchange(r.rk, us[:k]...) {
		cols[j].U = ext
	}
	r.lm.a.FusedBasisStepRows(cols[:k], theta, mu, gamma, r.invD, 0, r.lm.NLocal())
	return true
}

// Result reports a distributed solve.
type Result struct {
	X          []float64 // assembled global solution
	Iterations int
	Converged  bool
	// Allreduces counts the algorithm's global reductions (identical on
	// every rank).
	Allreduces int
}

// PCGJacobi solves A·x = b with Jacobi-preconditioned CG executed by p SPMD
// ranks over goroutines with real halo exchanges and allreduces. It is the
// executable counterpart of the modeled distributed PCG: same algorithm body
// (solver.PCG's), same partition, same communication pattern, actual
// messages — one initial collective plus two per iteration.
//
// The M-norm criterion (√(rᵀM⁻¹r) reduced by tol) is used, as in the
// paper's Figure 1. A numerical breakdown that stops the run short of tol is
// returned as an error wrapping solver.ErrBreakdown.
func PCGJacobi(a *sparse.CSR, b []float64, p int, tol float64, maxIters int) (*Result, error) {
	return solveP(p, "pcg", a, b, solver.Options{Tol: tol, MaxIterations: maxIters})
}

// SPCGJacobi solves A·x = b with the paper's sPCG executed by p real SPMD
// ranks: the matrix powers kernel runs with one halo exchange per basis
// column, the fused Gram matrices UᵀS and PᵀS are reduced in a single
// collective per outer iteration (the paper's headline property) after a
// one-value collective for the boundary test, and the s×s Scalar Work runs
// redundantly on every rank — exactly the distributed execution the paper's
// runtime analysis assumes.
//
// The Jacobi preconditioner is used (rank-local); params supplies the basis
// (degree ≥ s). Criterion and breakdown reporting as for PCGJacobi.
func SPCGJacobi(a *sparse.CSR, b []float64, p, s int, params *basis.Params, tol float64, maxIters int) (*Result, error) {
	return solveSStep("spcg", a, b, p, s, params, tol, maxIters)
}

// CAPCGJacobi solves A·x = b with Toledo's CA-PCG executed by p real SPMD
// ranks: two matrix-powers blocks per outer iteration (2s−1 products, but s
// halo exchanges: at each degree both chains reach, one message per peer
// carries both columns), one (2s+1)²-value collective for the Gram matrix,
// and the s inner iterations run redundantly on every rank in the changed
// basis — the collectives of paper Algorithm 3 with real messages, its halo
// exchanges merged pairwise.
func CAPCGJacobi(a *sparse.CSR, b []float64, p, s int, params *basis.Params, tol float64, maxIters int) (*Result, error) {
	return solveSStep("capcg", a, b, p, s, params, tol, maxIters)
}

func solveSStep(method string, a *sparse.CSR, b []float64, p, s int, params *basis.Params, tol float64, maxIters int) (*Result, error) {
	if s < 1 {
		return nil, fmt.Errorf("spmd: s = %d < 1", s)
	}
	if params == nil {
		return nil, fmt.Errorf("spmd: basis params missing")
	}
	return solveP(p, method, a, b, solver.Options{S: s, BasisParams: params, Tol: tol, MaxIterations: maxIters})
}

// solveP is solve on a fresh world of p ranks.
func solveP(p int, method string, a *sparse.CSR, b []float64, opts solver.Options) (*Result, error) {
	if p < 1 {
		return nil, fmt.Errorf("spmd: cannot run on %d ranks", p)
	}
	return solve(NewWorld(p), method, a, b, opts)
}

// newRankBackends distributes a over p ranks and gives each its backend, the
// Jacobi diagonal inverted; RunE's rank is set by the caller.
func newRankBackends(a *sparse.CSR, p int) ([]*rankBackend, error) {
	locals, err := Distribute(a, p)
	if err != nil {
		return nil, err
	}
	bes := make([]*rankBackend, p)
	for r, lm := range locals {
		invD := lm.a.Diag()
		for i, d := range invD {
			if d <= 0 {
				return nil, fmt.Errorf("spmd: non-positive diagonal at row %d", lm.Lo+i)
			}
			invD[i] = 1 / d
		}
		bes[r] = &rankBackend{lm: lm, invD: invD}
	}
	return bes, nil
}

// solve distributes the system over w's ranks, runs the one solver core on
// every rank over the rank backend, assembles the solution and asserts that
// all ranks made the same control-flow decisions (they share every reduced
// scalar).
func solve(w *World, method string, a *sparse.CSR, b []float64, opts solver.Options) (*Result, error) {
	n, p := a.Dim(), w.P
	if len(b) != n {
		return nil, fmt.Errorf("spmd: rhs length %d != %d", len(b), n)
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 10 * n
	}
	opts.Criterion = solver.RecursiveResidualMNorm
	bes, err := newRankBackends(a, p)
	if err != nil {
		return nil, err
	}

	x := make([]float64, n)
	stats := make([]*solver.Stats, p)
	errs := make([]error, p)
	if err := w.RunE(func(rk *Rank) {
		be := bes[rk.ID]
		be.rk = rk
		lm := be.lm
		xl, st, err := solver.RunOn(be, method, b[lm.Lo:lm.Hi], opts)
		stats[rk.ID], errs[rk.ID] = st, err
		copy(x[lm.Lo:lm.Hi], xl) // disjoint slices: no post-run race
	}); err != nil {
		return nil, err
	}

	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("spmd: rank %d: %w", r, err)
		}
	}
	st := stats[0]
	for r := 1; r < p; r++ {
		o := stats[r]
		if o.Iterations != st.Iterations || o.Converged != st.Converged || o.Allreduces != st.Allreduces ||
			(o.Breakdown == nil) != (st.Breakdown == nil) {
			return nil, fmt.Errorf("spmd: ranks diverged in control flow (rank %d: %d/%v/%d vs rank 0: %d/%v/%d)",
				r, o.Iterations, o.Converged, o.Allreduces, st.Iterations, st.Converged, st.Allreduces)
		}
	}
	if st.Breakdown != nil && !st.Converged {
		return nil, fmt.Errorf("spmd: %w", st.Breakdown)
	}
	return &Result{X: x, Iterations: st.Iterations, Converged: st.Converged, Allreduces: st.Allreduces}, nil
}
