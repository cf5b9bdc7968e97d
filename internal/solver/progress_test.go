package solver

import (
	"math"
	"slices"
	"testing"

	"spcg/internal/basis"
	"spcg/internal/precond"
	"spcg/internal/sparse"
)

// TestAdaptiveHistoryAcrossCascade: the degenerate basis forces the full
// 4 → 2 → 1 cascade, and the phases record one History against one initial
// value, with cascade-wide aggregates.
func TestAdaptiveHistoryAcrossCascade(t *testing.T) {
	a := sparse.Poisson2D(16, 16)
	b, _ := testProblem(a)
	m, _ := precond.NewJacobi(a)
	_, st, err := SPCGAdaptive(a, m, b, Options{
		S: 4, BasisParams: degenerateNewtonParams(4), Tol: 1e-9,
		Criterion: RecursiveResidualMNorm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("cascade did not converge: %+v", st.Breakdown)
	}
	if st.Restarts != 2 {
		t.Fatalf("Restarts = %d, want 2 (4→2→1)", st.Restarts)
	}
	h := st.History
	if len(h) == 0 || h[0] != 1 || h[len(h)-1] != st.FinalRelative {
		t.Fatalf("History of %d checks from %v, FinalRelative %v", len(h), h, st.FinalRelative)
	}
	// BestRelative is the minimum over every check of every phase.
	if best := slices.Min(h); st.BestRelative != best {
		t.Fatalf("BestRelative = %v, min over History = %v", st.BestRelative, best)
	}
}

// TestAdaptiveIsOneRun: where the monomial basis at s = 12 breaks down or
// stagnates and the cascade halves s, the phases are one run. The criterion
// is measured against the first phase's initial value throughout, so
// Stats.TrueRelResidual is ‖b−Ax‖/‖b‖ of the returned x, FinalRelative is
// that same quantity at the last check, and History restarts at 1 nowhere but
// at x⁰. On poisson2d:128 the s = 6 phase stalls near 1.8e-8 without breaking
// down; its stagnation window ends it.
func TestAdaptiveIsOneRun(t *testing.T) {
	for _, spec := range []string{"poisson2d:64", "poisson2d:128", "poisson3d:24"} {
		build, n, _, err := sparse.ParseMatrixSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		a := build()
		m, err := precond.NewJacobi(a)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = 1
		}
		x, st, err := SPCGAdaptive(a, m, b, Options{
			S: 12, Basis: basis.Monomial, Tol: 1e-9, MaxIterations: 2000,
		})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if st.Restarts == 0 {
			t.Fatalf("%s: no s reduction; the case must restart", spec)
		}
		ax := make([]float64, n)
		a.MulVec(ax, x)
		var res, nb float64
		for i := range b {
			res += (b[i] - ax[i]) * (b[i] - ax[i])
			nb += b[i] * b[i]
		}
		want := math.Sqrt(res) / math.Sqrt(nb)
		t.Logf("%s: restarts %d, iterations %d, converged %v, TrueRelResidual %.3g, ‖b−Ax‖/‖b‖ %.3g, FinalRelative %.3g",
			spec, st.Restarts, st.Iterations, st.Converged, st.TrueRelResidual, want, st.FinalRelative)
		if math.Abs(st.TrueRelResidual-want) > 1e-12*want {
			t.Errorf("%s: TrueRelResidual %v, ‖b−Ax‖/‖b‖ %v", spec, st.TrueRelResidual, want)
		}
		if math.Abs(st.FinalRelative-want) > 1e-9*want {
			t.Errorf("%s: FinalRelative %v, ‖b−Ax‖/‖b‖ %v", spec, st.FinalRelative, want)
		}
		h := st.History
		if h[0] != 1 || h[len(h)-1] != st.FinalRelative {
			t.Fatalf("%s: History %d entries from %v to %v, FinalRelative %v",
				spec, len(h), h[0], h[len(h)-1], st.FinalRelative)
		}
		for i := 1; i < len(h); i++ {
			if h[i] == 1 {
				t.Errorf("%s: History restarts at 1 at check %d", spec, i)
			}
		}
	}
}
