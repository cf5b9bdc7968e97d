package solver

import (
	"errors"
	"fmt"

	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// Backend is the execution seam under every solver in this package: where a
// matrix-vector product, a preconditioner application and a global sum are
// actually carried out. The algorithm bodies are written once against the
// shared context (ctx), which layers event counts, phase spans and the
// modeled-cost charge on top of a Backend; nothing above this interface knows
// which runtime it is on.
//
// Exactly two implementations exist, chosen by entry point and by nothing
// else: the local backend behind Method/ByName (whole vectors, pool kernels,
// Reduce is the identity) and the rank backend of internal/spmd behind RunOn
// (owned rows, halo exchange, rank-local Jacobi, Rank.Allreduce).
//
// In exchange the bodies obey one rule: every branch is taken on a value that
// came out of Reduce, never on a rank-local peek at a vector, so all ranks
// take the same path and no collective is left waiting for a rank that went
// another way.
type Backend interface {
	// Rows is the length of the vectors the caller holds: n on the local
	// backend, the owned-row count on a rank.
	Rows() int
	// SpMV computes the owned rows of dst = A·src (halo exchange plus local
	// multiply). dst must not alias src.
	SpMV(dst, src []float64)
	// ApplyM computes the owned rows of dst = M⁻¹·src.
	ApplyM(dst, src []float64)
	// Reduce sums buf elementwise over all ranks. The result belongs to the
	// caller: no other rank holds a reference to it.
	Reduce(buf []float64) []float64
	// Lookahead reports whether a rank-local sum already is the global value,
	// so that a branch may be taken on it before the collective that carries
	// it has run. True on the local backend, where a collective is a modeled
	// charge: the s-step bodies then test rᵀu at the block boundary and pay
	// for it inside the block's Gram reduction — the paper's one collective
	// per s steps. False on ranks, where the boundary scalars cost a small
	// collective of their own (two per outer iteration).
	Lookahead() bool
	// Exec says where the rank-local dot, Gram and block-update kernels run.
	Exec() vec.Exec
}

// local is the shared-memory backend: one address space, kernels on the
// worker pool. It also offers the fused matrix-powers step (mpk.BasisStepper
// through the context) and the paired product (pairedSpMV), which need the
// whole matrix in one place.
type local struct {
	a sparse.Matrix
	m precond.Interface
}

// invDiagger is the preconditioner capability the fused MPK path needs.
type invDiagger interface{ InvDiag() []float64 }

func newLocal(a sparse.Matrix, m precond.Interface) (*local, error) {
	if a == nil {
		return nil, fmt.Errorf("%w: nil matrix", ErrDimension)
	}
	n := a.Dim()
	if m == nil {
		m = precond.NewIdentity(n)
	}
	if m.Dim() != n {
		return nil, fmt.Errorf("%w: matrix n=%d, preconditioner n=%d", ErrDimension, n, m.Dim())
	}
	return &local{a: a, m: m}, nil
}

func (l *local) Rows() int                      { return l.a.Dim() }
func (l *local) SpMV(dst, src []float64)        { l.a.MulVecPar(dst, src) }
func (l *local) ApplyM(dst, src []float64)      { l.m.Apply(dst, src) }
func (l *local) Reduce(buf []float64) []float64 { return buf }
func (l *local) Lookahead() bool                { return true }
func (l *local) Exec() vec.Exec                 { return vec.Pooled }

// SpMVPair computes both columns of dst = A·src in one pass over the matrix;
// see pairedSpMV.
func (l *local) SpMVPair(dst, src *vec.Block) { l.a.MulBlockPar(dst, src) }

// FusedBasisStep advances one basis column in a single pass over the matrix
// rows when the preconditioner is diagonal; see mpk.BasisStepper.
func (l *local) FusedBasisStep(sNext, u, sCur, sPrev []float64, theta, mu, gamma float64, uNext []float64) bool {
	jd, ok := l.m.(invDiagger)
	if !ok {
		return false
	}
	l.a.FusedBasisStepPar(sNext, u, sCur, sPrev, theta, mu, gamma, jd.InvDiag(), uNext)
	return true
}

// body is one algorithm, written once against the context. It returns the
// iterate it stopped at; its only errors are setup errors (returned to the
// caller as they are) and ErrCancelled.
type body func(c *ctx) ([]float64, error)

// bodies are the algorithms RunOn can name. "adaptive" is a cascade over
// PCG/SPCG rather than a body and stays local-only, like BatchPCG.
var bodies = map[string]body{
	"pcg":     pcg,
	"pcg3":    pcg3,
	"spcg":    spcg,
	"spcgmon": spcgMon,
	"capcg":   capcg,
	"capcg3":  capcg3,
}

// runLocal is the entry point behind every Method: the local backend, plus
// what only exists there — the modeled-cost tracker and the soft-error
// injector.
func runLocal(alg body, a sparse.Matrix, m precond.Interface, b []float64, opts Options) ([]float64, *Stats, error) {
	opts = opts.withDefaults()
	lb, err := newLocal(a, m)
	if err != nil {
		return nil, nil, err
	}
	c, err := newCtx(lb, b, opts)
	if err != nil {
		return nil, nil, err
	}
	c.attachLocal(lb)
	return c.run(alg)
}

// RunOn runs the named registry method on a caller-supplied backend — the
// entry point of the SPMD runtime, which calls it once per rank with that
// rank's rows of b. Options.Tracker and Injector belong to the local backend
// and are not consulted. Options.Cancel is ignored: a
// rank-local poll could take one rank out of a loop its peers are still
// reducing in; a world's RecvTimeout bounds a run instead. An s-step method
// needs Options.BasisParams, Options.Spectrum or the monomial basis here —
// no rank holds the whole matrix to estimate a spectrum from.
func RunOn(be Backend, method string, b []float64, opts Options) ([]float64, *Stats, error) {
	alg, ok := bodies[method]
	if !ok {
		return nil, nil, fmt.Errorf("solver: method %q does not run on an execution backend", method)
	}
	opts = opts.withDefaults()
	opts.Cancel = nil
	c, err := newCtx(be, b, opts)
	if err != nil {
		return nil, nil, err
	}
	return c.run(alg)
}

// run executes a body and fills the end-of-run stats. A cancelled run whose
// iterate already meets the tolerance reports convergence instead.
func (c *ctx) run(alg body) ([]float64, *Stats, error) {
	x, err := alg(c)
	if err != nil && !errors.Is(err, ErrCancelled) {
		return nil, nil, err
	}
	c.finish(x)
	if c.stats.Converged {
		err = nil
	}
	return x, c.stats, err
}
