package tune

import (
	"fmt"
	"sync"

	"spcg/internal/basis"
	"spcg/internal/precond"
	"spcg/internal/solver"
	"spcg/internal/sparse"
)

// Setup holds the lazily built preconditioner M of one (matrix,
// preconditioner spec) pair: the O(n)/O(nnz) half of the paper's §5.1
// set-up, "excluded from timings". The other half, the Ritz estimates the
// Chebyshev preconditioner and the Chebyshev and Newton bases need, is a
// handful of floats per matrix: it lives in the Spectra the Setup points
// at, which outlives the Setup. Its mutex serializes construction so
// concurrent first users build M once; afterwards it is immutable and
// shared freely (see the precond package's concurrency contract). The zero
// value is ready to use and keeps a private Spectra (a one-off solve). The
// solve service keeps Setups in its LRU, each pointing at its registry
// entry's Spectra; DirectRunner keeps one per spec, all sharing one Spectra.
type Setup struct {
	// Spectra is the matrix's memo of Ritz estimates; nil gives the Setup a
	// private one on first use.
	Spectra *Spectra

	mu      sync.Mutex
	prec    precond.Interface
	precErr error
}

// spectra returns the memo the Setup points at.
func (e *Setup) spectra() *Spectra {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.Spectra == nil {
		e.Spectra = &Spectra{}
	}
	return e.Spectra
}

// preconditioner returns the Setup's preconditioner, building it on first
// use; Resolve calls it.
func (e *Setup) preconditioner(a *sparse.CSR, spec precond.Spec) (precond.Interface, error) {
	sp := e.spectra()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.prec == nil && e.precErr == nil {
		e.prec, e.precErr = spec.BuildWith(a, sp.interval)
	}
	return e.prec, e.precErr
}

// Resolve is the one place a named configuration becomes a runnable solve on
// matrix a: the method from the solver registry, the preconditioner through
// precond.Parse/Spec.Build ("" is Jacobi), and Options carrying the block
// size, the basis (Chebyshev unless the candidate names one) and — for the
// methods and bases that use it — the spectrum estimate of M⁻¹A from st's
// Spectra. st must be the Setup of (a, c.Precond); pieces it or its Spectra
// already hold are reused. The caller fills in what is the request's own
// (tolerance, caps, cancellation, tracing). A failed estimate is not an
// error: the solver then computes its own.
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
	m, err := st.preconditioner(a, spec)
	if err != nil {
		return fail(err)
	}
	if solver.NeedsSpectrum(c.Method) && opts.Basis != basis.Monomial {
		if est, err := st.spectra().preconditioned(spec.Canonical(), a, m, c.S); err == nil {
			opts.Spectrum = est
		}
	}
	return solve, m, opts, nil
}
