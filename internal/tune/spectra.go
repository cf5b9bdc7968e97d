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
// preconditioner spec the estimate of M⁻¹A, which the Chebyshev and Newton
// bases use. Each is a handful of floats from a short Lanczos run, so it is
// per-matrix state rather than set-up: the solve service's registry entry
// owns one for the matrix's lifetime and its setup cache's entries only
// point at it, so rebuilding an evicted preconditioner never pays a second
// Ritz run. Every estimate is computed once, a failure included; the zero
// value is ready to use and safe for concurrent use.
type Spectra struct {
	ofA ritz

	mu     sync.Mutex
	byPrec map[string]*ritz
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
// whose canonical spec is prec, computed once with max(2s, 20) steps of
// standard PCG: whichever block size asks first sets the length, and every
// later user of the matrix shares that estimate.
func (sp *Spectra) preconditioned(prec string, a *sparse.CSR, m precond.Interface, s int) (*eig.Estimate, error) {
	sp.mu.Lock()
	r := sp.byPrec[prec]
	if r == nil {
		if sp.byPrec == nil {
			sp.byPrec = map[string]*ritz{}
		}
		r = &ritz{}
		sp.byPrec[prec] = r
	}
	sp.mu.Unlock()
	r.once.Do(func() {
		if s <= 0 {
			s = solver.DefaultS
		}
		r.est, r.err = eig.RitzFromPCG(a, m.Apply, eig.Options{Iterations: max(2*s, 20)})
	})
	return r.est, r.err
}
