package tune

import (
	"fmt"
	"sync"

	"spcg/internal/basis"
	"spcg/internal/eig"
	"spcg/internal/precond"
	"spcg/internal/solver"
	"spcg/internal/sparse"
)

// Setup holds the (lazily built) reusable set-up of one (matrix,
// preconditioner spec) pair: the preconditioner M and the Ritz estimate of
// M⁻¹A's spectrum — the paper's §5.1 set-up, "excluded from timings". Its
// mutex serializes construction so concurrent first users build each piece
// once; afterwards the stored values are immutable and shared freely (see
// the precond package's concurrency contract). The zero value is ready to
// use. The solve service keeps Setups in its LRU, DirectRunner in a
// per-spec map; a one-off solve passes a fresh one.
type Setup struct {
	mu       sync.Mutex
	prec     precond.Interface
	precErr  error
	spectrum *eig.Estimate
	specErr  error
}

// Preconditioner returns the Setup's preconditioner, building it on first
// use. Resolve calls it; a caller that shares one set-up across several
// solves (the service's coalesced batches) may call it directly.
func (e *Setup) Preconditioner(a *sparse.CSR, spec precond.Spec) (precond.Interface, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.prec == nil && e.precErr == nil {
		e.prec, e.precErr = spec.Build(a)
	}
	return e.prec, e.precErr
}

// spectrumFor returns the Ritz estimate of M⁻¹A, computing it once with
// max(2s, 20) steps of standard PCG — whichever block size asks first sets
// the length, and every later user of the Setup shares that estimate.
func (e *Setup) spectrumFor(a *sparse.CSR, m precond.Interface, s int) (*eig.Estimate, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.spectrum == nil && e.specErr == nil {
		if s <= 0 {
			s = solver.DefaultS
		}
		e.spectrum, e.specErr = eig.RitzFromPCG(a, m.Apply, eig.Options{Iterations: max(2*s, 20)})
	}
	return e.spectrum, e.specErr
}

// Resolve is the one place a named configuration becomes a runnable solve on
// matrix a: the method from the solver registry, the preconditioner through
// precond.Parse/Spec.Build ("" is Jacobi), and Options carrying the block
// size, the basis (Chebyshev unless the candidate names one) and — for the
// methods and bases that use it — the spectrum estimate of M⁻¹A. st must be
// the Setup of (a, c.Precond); pieces it already holds are reused. The
// caller fills in what is the request's own (tolerance, caps, cancellation,
// tracing). A failed estimate is not an error: the solver then computes its
// own.
func (c Candidate) Resolve(a *sparse.CSR, st *Setup) (solver.Method, precond.Interface, solver.Options, error) {
	fail := func(err error) (solver.Method, precond.Interface, solver.Options, error) {
		return nil, nil, solver.Options{}, err
	}
	solve, ok := solver.ByName(c.Method)
	if !ok {
		return fail(fmt.Errorf("unknown method %q", c.Method))
	}
	spec, err := precond.Parse(c.Precond)
	if err != nil {
		return fail(err)
	}
	opts := solver.Options{S: c.S, Basis: basis.Chebyshev}
	if c.Basis != "" {
		if opts.Basis, err = basis.ParseType(c.Basis); err != nil {
			return fail(err)
		}
	}
	m, err := st.Preconditioner(a, spec)
	if err != nil {
		return fail(err)
	}
	if solver.NeedsSpectrum(c.Method) && opts.Basis != basis.Monomial {
		if est, err := st.spectrumFor(a, m, c.S); err == nil {
			opts.Spectrum = est
		}
	}
	return solve, m, opts, nil
}
