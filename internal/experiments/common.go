// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): Table 1 (cost model), Table 2 (numerical stability across
// the 40-matrix suite), Table 3 (runtime/speedup on the seven largest
// converging matrices), Figure 1 (strong scaling on 3D Poisson), plus the
// ablations DESIGN.md calls out.
package experiments

import (
	"fmt"
	"io"
	"math"

	"spcg/internal/basis"
	"spcg/internal/dist"
	"spcg/internal/eig"
	"spcg/internal/precond"
	"spcg/internal/solver"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// Config holds the experiment-wide knobs. The zero value is completed by
// withDefaults to the paper's settings at 1/32 problem scale.
type Config struct {
	// Scale divides the paper's matrix sizes (1 = full size; default 32,
	// which keeps the full Table 2 sweep tractable on a laptop).
	Scale int
	// S is the block size (paper: 10 for Tables 2–3).
	S int
	// Tol is the relative residual reduction (paper: 1e−9).
	Tol float64
	// MaxIterations caps each solve (paper: 12000).
	MaxIterations int
	// Machine is the modeled hardware (paper: 128 ranks/node ASC nodes).
	Machine dist.Machine
	// PrecondDegree is the Chebyshev preconditioner degree (paper: 3).
	PrecondDegree int
	// Progress, when non-nil, receives one line per completed work item in
	// the long-running sweeps (Table 2/Table 3).
	Progress io.Writer
}

// progressf writes a progress line when a Progress writer is configured.
func (c Config) progressf(format string, args ...any) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format+"\n", args...)
	}
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 32
	}
	if c.S <= 0 {
		c.S = 10
	}
	if c.Tol <= 0 {
		c.Tol = 1e-9
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 12000
	}
	if c.Machine.RanksPerNode == 0 {
		c.Machine = dist.DefaultMachine()
	}
	if c.PrecondDegree <= 0 {
		c.PrecondDegree = 3
	}
	return c
}

// problemSetup bundles everything needed to run one suite problem: the
// matrix, the right-hand side with known solution 1/√n (paper §5.1), the
// preconditioner, and the spectral estimates for basis generation.
type problemSetup struct {
	a        *sparse.CSR
	b        []float64
	m        precond.Interface
	spectrum *eig.Estimate // of M⁻¹A, for the s-step bases
}

// newSetup builds the problem with the requested preconditioner kind
// ("jacobi" or "chebyshev") and the paper's right-hand side (solution
// entries 1/√n, §5.1).
func newSetup(a *sparse.CSR, precKind string, degree int) (*problemSetup, error) {
	n := a.Dim()
	xTrue := make([]float64, n)
	vec.Fill(xTrue, 1/math.Sqrt(float64(n)))
	b := make([]float64, n)
	a.MulVecPar(b, xTrue)
	return newSetupRHS(a, b, precKind, degree)
}

// newSetupRandomRHS is newSetup with a deterministic pseudo-random
// right-hand side. The scaling experiments (Table 3, Figure 1) use it
// because the paper's constant-solution RHS produces spectrally degenerate
// residuals on which our double-precision sPCG hits its attainable-accuracy
// floor above the 1e9 reduction target (see DESIGN.md); a random RHS keeps
// the paper's criterion while preserving the per-iteration communication
// and computation structure those experiments measure.
func newSetupRandomRHS(a *sparse.CSR, seed uint64, precKind string, degree int) (*problemSetup, error) {
	n := a.Dim()
	b := make([]float64, n)
	state := seed*2862933555777941757 + 3037000493
	for i := range b {
		state = state*2862933555777941757 + 3037000493
		b[i] = float64(int64(state>>11))/(1<<52) - 1
	}
	return newSetupRHS(a, b, precKind, degree)
}

func newSetupRHS(a *sparse.CSR, b []float64, precKind string, degree int) (*problemSetup, error) {
	// The Chebyshev preconditioner's Build estimates the spectrum of A itself
	// (paper §5.1: a few PCG iterations, not charged to runtimes); Jacobi
	// ignores the degree argument.
	spec, err := precond.Parse(fmt.Sprintf("%s:%d", precKind, degree))
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	m, err := spec.Build(a)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}

	// Basis spectrum: of the preconditioned operator M⁻¹A.
	est, err := eig.RitzFromPCG(a, m.Apply, eig.Options{Iterations: 24})
	if err != nil {
		return nil, fmt.Errorf("experiments: preconditioned spectral estimate: %w", err)
	}
	return &problemSetup{a: a, b: b, m: m, spectrum: est}, nil
}

// sStepSolvers returns the three s-step methods in the paper's column order.
func sStepSolvers() []struct {
	Name string
	Run  solver.Method
} {
	return []struct {
		Name string
		Run  solver.Method
	}{
		{"sPCG", solver.SPCG},
		{"CA-PCG", solver.CAPCG},
		{"CA-PCG3", solver.CAPCG3},
	}
}

// runOne executes one solver configuration and reports (iterations,
// converged). Breakdowns and iteration-cap hits count as not converged, like
// the paper's "−" entries.
func runOne(run solver.Method, st *problemSetup, opts solver.Options) (int, bool, *solver.Stats) {
	opts.Spectrum = st.spectrum
	_, stats, err := run(st.a, st.m, st.b, opts)
	if err != nil {
		return 0, false, stats
	}
	return stats.Iterations, stats.Converged, stats
}

// basisOpts builds solver options for a given basis type.
func basisOpts(cfg Config, bt basis.Type, crit solver.Criterion) solver.Options {
	return solver.Options{
		S:             cfg.S,
		Basis:         bt,
		Tol:           cfg.Tol,
		MaxIterations: cfg.MaxIterations,
		Criterion:     crit,
	}
}

// hyph formats an iteration count the way the paper's tables do.
func hyph(iters int, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%d", iters)
}
