// Package precond provides the preconditioners used in the paper's
// experiments — Jacobi and the degree-d Chebyshev polynomial preconditioner —
// plus block-Jacobi, SSOR and IC(0) as additional substrates.
//
// Every preconditioner here is a fixed symmetric positive-definite linear
// operator M⁻¹ (a requirement of PCG), and each reports its per-application
// cost in FLOPs and halo exchanges so the virtual cluster can charge it.
//
// All preconditioners in this package are immutable after construction:
// Apply never writes to receiver state (scratch space comes from a
// sync.Pool), so a single instance may serve concurrent Apply calls from
// many solver goroutines — the property the solve service's setup cache
// relies on and TestConcurrentSolvesShareState enforces under -race.
package precond

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// Interface is a fixed SPD preconditioner operator.
type Interface interface {
	// Apply computes dst = M⁻¹·src. dst and src must not alias.
	Apply(dst, src []float64)
	// Dim returns the operand length n.
	Dim() int
	// Name returns a short identifier ("jacobi", "chebyshev(3)", ...).
	Name() string
	// Flops returns the floating-point operations per application,
	// used by the distributed cost model.
	Flops() float64
	// HaloExchanges returns how many neighbour exchanges one application
	// costs in a block-row distribution (0 for pointwise preconditioners,
	// d for a degree-d polynomial preconditioner built on SpMV).
	HaloExchanges() int
}

// ErrZeroDiagonal is returned when a matrix has a non-positive diagonal
// entry, which rules out Jacobi-type preconditioning of an SPD system.
var ErrZeroDiagonal = errors.New("precond: matrix has non-positive diagonal entry")

// Identity is the trivial preconditioner M = I.
type Identity struct{ n int }

// NewIdentity returns the identity preconditioner for vectors of length n.
func NewIdentity(n int) *Identity { return &Identity{n: n} }

// Apply copies src to dst.
func (p *Identity) Apply(dst, src []float64) { vec.Copy(dst, src) }

// Dim returns n.
func (p *Identity) Dim() int { return p.n }

// Name returns "identity".
func (p *Identity) Name() string { return "identity" }

// Flops returns 0.
func (p *Identity) Flops() float64 { return 0 }

// HaloExchanges returns 0.
func (p *Identity) HaloExchanges() int { return 0 }

// Jacobi is the diagonal preconditioner M = diag(A).
type Jacobi struct {
	invDiag []float64
}

// NewJacobi builds the Jacobi preconditioner from the diagonal of a.
func NewJacobi(a *sparse.CSR) (*Jacobi, error) {
	inv, err := invertDiag(a)
	if err != nil {
		return nil, err
	}
	return &Jacobi{invDiag: inv}, nil
}

// invertDiag returns D⁻¹ of a, inverted in place in the slice Diag returns,
// or ErrZeroDiagonal for the first non-positive or NaN diagonal entry.
func invertDiag(a *sparse.CSR) ([]float64, error) {
	inv := a.Diag()
	for i, v := range inv {
		if v <= 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("%w: row %d has diagonal %v", ErrZeroDiagonal, i, v)
		}
		inv[i] = 1 / v
	}
	return inv, nil
}

// Apply computes dst = D⁻¹·src, on the worker pool for long vectors
// (elementwise, so the bits do not depend on the chunking).
func (p *Jacobi) Apply(dst, src []float64) { vec.Pooled.HadamardInto(dst, p.invDiag, src) }

// InvDiag returns the inverse diagonal D⁻¹ (a view, not a copy). It is the
// capability the fused matrix-powers fast path keys on: a preconditioner
// exposing InvDiag can be applied inside the SpMV row loop.
func (p *Jacobi) InvDiag() []float64 { return p.invDiag }

// Dim returns n.
func (p *Jacobi) Dim() int { return len(p.invDiag) }

// Name returns "jacobi".
func (p *Jacobi) Name() string { return "jacobi" }

// Flops returns n (one multiply per entry).
func (p *Jacobi) Flops() float64 { return float64(len(p.invDiag)) }

// HaloExchanges returns 0: Jacobi is pointwise.
func (p *Jacobi) HaloExchanges() int { return 0 }

// Chebyshev is the degree-d Chebyshev polynomial preconditioner: applying it
// runs d steps of Chebyshev iteration for A·z = r from z⁰ = 0 on the
// interval [λmin, λmax], i.e. M⁻¹ = p_d(A) with a fixed polynomial p_d.
// It needs only SpMV (no inner products), which is why the paper pairs it
// with s-step methods: it adds no global synchronization.
type Chebyshev struct {
	a          *sparse.CSR
	degree     int
	theta, del float64
	// scratch pools keep Apply allocation-free in steady state while
	// remaining safe for concurrent callers.
	scratch sync.Pool
}

// chebScratch is one caller's set of Apply work vectors.
type chebScratch struct{ r, d, ad []float64 }

// NewChebyshev builds a degree-d Chebyshev preconditioner for a on the
// spectral interval [lambdaMin, lambdaMax].
func NewChebyshev(a *sparse.CSR, degree int, lambdaMin, lambdaMax float64) (*Chebyshev, error) {
	if degree < 1 {
		return nil, fmt.Errorf("precond: Chebyshev degree %d < 1", degree)
	}
	if !(lambdaMax > lambdaMin) || lambdaMin <= 0 {
		return nil, fmt.Errorf("precond: Chebyshev needs 0 < λmin < λmax, got [%v, %v]", lambdaMin, lambdaMax)
	}
	n := a.Dim()
	p := &Chebyshev{
		a:      a,
		degree: degree,
		theta:  (lambdaMax + lambdaMin) / 2,
		del:    (lambdaMax - lambdaMin) / 2,
	}
	p.scratch.New = func() any {
		return &chebScratch{
			r:  make([]float64, n),
			d:  make([]float64, n),
			ad: make([]float64, n),
		}
	}
	return p, nil
}

// Apply runs the fixed-degree Chebyshev iteration (Saad, Iterative Methods,
// Alg. 12.1 specialized to zero initial guess).
func (p *Chebyshev) Apply(dst, src []float64) {
	n := p.a.Dim()
	if len(dst) != n || len(src) != n {
		panic("precond: Chebyshev Apply dim mismatch")
	}
	ws := p.scratch.Get().(*chebScratch)
	defer p.scratch.Put(ws)
	sigma1 := p.theta / p.del
	rho := 1 / sigma1
	// z⁰ = 0, r⁰ = src, d⁰ = r⁰/θ, z¹ = d⁰.
	vec.Copy(ws.r, src)
	vec.ScaleInto(ws.d, 1/p.theta, ws.r)
	vec.Copy(dst, ws.d)
	for k := 1; k < p.degree; k++ {
		p.a.MulVecPar(ws.ad, ws.d)
		vec.Axpy(-1, ws.ad, ws.r)
		rhoPrev := rho
		rho = 1 / (2*sigma1 - rhoPrev)
		// d ← ρ·ρprev·d + (2ρ/δ)·r
		vec.Axpby(2*rho/p.del, ws.r, rho*rhoPrev, ws.d)
		vec.Axpy(1, ws.d, dst)
	}
}

// Dim returns n.
func (p *Chebyshev) Dim() int { return p.a.Dim() }

// Name returns "chebyshev(d)".
func (p *Chebyshev) Name() string { return fmt.Sprintf("chebyshev(%d)", p.degree) }

// Degree returns the polynomial degree.
func (p *Chebyshev) Degree() int { return p.degree }

// Flops counts (degree−1) SpMVs plus the vector updates.
func (p *Chebyshev) Flops() float64 {
	n := float64(p.a.Dim())
	spmv := 2 * float64(p.a.NNZ())
	return float64(p.degree-1)*(spmv+6*n) + 2*n
}

// HaloExchanges returns degree−1 (one per internal SpMV).
func (p *Chebyshev) HaloExchanges() int { return p.degree - 1 }
