package solver

import (
	"errors"
	"testing"

	"spcg/internal/basis"
	"spcg/internal/precond"
	"spcg/internal/sparse"
)

// TestCancelAlreadyClosed: a pre-closed Cancel channel stops every solver on
// its first iteration with ErrCancelled and partial (but well-formed) Stats.
func TestCancelAlreadyClosed(t *testing.T) {
	a := sparse.Poisson2D(24, 24)
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1
	}
	done := make(chan struct{})
	close(done)
	for name, solve := range methods {
		x, stats, err := solve(a, m, b, Options{S: 4, Basis: basis.Chebyshev, Cancel: done, Tol: 1e-10})
		if !errors.Is(err, ErrCancelled) {
			t.Errorf("%s: want ErrCancelled, got %v (stats=%+v)", name, err, stats)
			continue
		}
		if x == nil || stats == nil {
			t.Errorf("%s: cancelled run must still return partial x and stats", name)
			continue
		}
		if len(x) != a.Dim() {
			t.Errorf("%s: partial x has length %d, want %d", name, len(x), a.Dim())
		}
		if stats.Converged {
			t.Errorf("%s: zero-iteration run cannot be converged", name)
		}
		if stats.TrueRelResidual <= 0 {
			t.Errorf("%s: partial stats missing TrueRelResidual (%v)", name, stats.TrueRelResidual)
		}
	}
}

// cancelAfterPrec wraps a preconditioner and closes the cancel channel after
// a fixed number of applications: a deterministic way to cancel mid-solve
// without timer races.
type cancelAfterPrec struct {
	precond.Interface
	after int
	count int
	done  chan struct{}
}

func (p *cancelAfterPrec) Apply(dst, src []float64) {
	p.Interface.Apply(dst, src)
	p.count++
	if p.count == p.after {
		close(p.done)
	}
}

// TestCancelMidSolve: cancelling after a few iterations keeps the progress
// made so far — the solver stops early with ErrCancelled, a strictly partial
// iteration count, and a residual that improved on the start.
func TestCancelMidSolve(t *testing.T) {
	a := sparse.Poisson2D(32, 32)
	jac, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1
	}
	_, full, err := PCG(a, jac, b, Options{Tol: 1e-10})
	if err != nil || !full.Converged {
		t.Fatalf("reference run failed: %v %+v", err, full)
	}
	done := make(chan struct{})
	m := &cancelAfterPrec{Interface: jac, after: 8, done: done}
	x, stats, err := PCG(a, m, b, Options{Tol: 1e-10, Cancel: done})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v (iters=%d)", err, stats.Iterations)
	}
	if stats.Iterations == 0 || stats.Iterations >= full.Iterations {
		t.Errorf("cancelled run did %d iterations, want strictly between 0 and %d", stats.Iterations, full.Iterations)
	}
	// The 2-norm residual is not monotone in CG, so only require the partial
	// state to be finite and reported; progress is checked via Iterations.
	if !(stats.TrueRelResidual > 0) {
		t.Errorf("partial stats missing TrueRelResidual: %v", stats.TrueRelResidual)
	}
	if len(x) != a.Dim() {
		t.Error("missing partial solution")
	}
}

// TestCancelNilChannelNoop: a nil Cancel behaves exactly like before the
// feature existed.
func TestCancelNilChannelNoop(t *testing.T) {
	a := sparse.Poisson2D(16, 16)
	m, _ := precond.NewJacobi(a)
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1
	}
	_, stats, err := PCG(a, m, b, Options{Tol: 1e-9})
	if err != nil || !stats.Converged {
		t.Fatalf("nil-Cancel solve failed: %v %+v", err, stats)
	}
}
