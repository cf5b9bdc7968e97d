package tune

import (
	"sync"

	"spcg/internal/eig"
	"spcg/internal/precond"
	"spcg/internal/solver"
	"spcg/internal/sparse"
)

// Spectra is one matrix's memo of Ritz estimates: A's own interval, which
// the Chebyshev preconditioner is built on, and per canonical
// preconditioner spec and Lanczos length the estimate of M⁻¹A, which the
// Chebyshev and Newton bases use. Each is a handful of floats from a short Lanczos run, so it is
// per-matrix state rather than set-up: the solve service's registry entry
// owns one for the matrix's lifetime and its setup cache's entries only
// point at it, so rebuilding an evicted preconditioner never pays a second
// Ritz run. Every estimate is computed once, a failure included; the zero
// value is ready to use and safe for concurrent use.
type Spectra struct {
	ofA ritz

	mu     sync.Mutex
	byPrec map[precSteps]*ritz
}

// precSteps keys an estimate of M⁻¹A: the canonical preconditioner spec and
// the number of PCG steps it is built from.
type precSteps struct {
	prec  string
	steps int
}

// ritz is one memoized estimate.
type ritz struct {
	once sync.Once
	est  *eig.Estimate
	err  error
}

// interval returns precond.IntervalOf(a), computed once.
func (sp *Spectra) interval(a *sparse.CSR) (*eig.Estimate, error) {
	sp.ofA.once.Do(func() { sp.ofA.est, sp.ofA.err = precond.IntervalOf(a) })
	return sp.ofA.est, sp.ofA.err
}

// preconditioned returns the estimate of M⁻¹A for the preconditioner m
// whose canonical spec is prec, from max(2s, 20) steps of standard PCG,
// computed once per length: every block size of one length shares an
// estimate, and no block size's estimate depends on which one asked first.
func (sp *Spectra) preconditioned(prec string, a *sparse.CSR, m precond.Interface, s int) (*eig.Estimate, error) {
	if s <= 0 {
		s = solver.DefaultS
	}
	key := precSteps{prec, max(2*s, 20)}
	sp.mu.Lock()
	r := sp.byPrec[key]
	if r == nil {
		if sp.byPrec == nil {
			sp.byPrec = map[precSteps]*ritz{}
		}
		r = &ritz{}
		sp.byPrec[key] = r
	}
	sp.mu.Unlock()
	r.once.Do(func() {
		r.est, r.err = eig.RitzFromPCG(a, m.Apply, eig.Options{Iterations: key.steps})
	})
	return r.est, r.err
}
