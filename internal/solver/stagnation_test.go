package solver

import (
	"errors"
	"runtime"
	"testing"

	"spcg/internal/basis"
	"spcg/internal/pool"
	"spcg/internal/precond"
	"spcg/internal/sparse"
)

// TestStagnationEndsFloorRun: monomial sPCG at s = 8 on poisson2d:32 (Jacobi,
// b = ones, the true-residual criterion at tol 1e-9) makes its last 1 % gain
// at iteration 192 with b − A·x near 1e-7, then grinds at that floor until a
// Gram breakdown at iteration 1568. The stagnation window ends it within
// stagnationIters iterations of that gain, unconverged and with the named
// site, at the same check and on the same x bits at any GOMAXPROCS.
func TestStagnationEndsFloorRun(t *testing.T) {
	a := sparse.Poisson2D(32, 32)
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(0))
	var first *Stats
	var firstX uint64
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		pool.SetDefaultWorkers(procs)
		x, st, err := SPCG(a, m, b, Options{S: 8, Basis: basis.Monomial, Tol: 1e-9, MaxIterations: 3000})
		if err != nil {
			t.Fatal(err)
		}
		var be *BreakdownError
		if !errors.As(st.Breakdown, &be) || be.Site != SiteStagnation || st.Converged {
			t.Fatalf("GOMAXPROCS %d: converged %v, breakdown %v; want the %q site", procs, st.Converged, st.Breakdown, SiteStagnation)
		}
		if st.Iterations > 192+stagnationIters {
			t.Errorf("GOMAXPROCS %d: stopped at iteration %d, after 192 + %d", procs, st.Iterations, stagnationIters)
		}
		if first == nil {
			first, firstX = st, xHash(x)
			t.Logf("%v (true relative residual %.3g)", be, st.TrueRelResidual)
			continue
		}
		if st.Iterations != first.Iterations || xHash(x) != firstX {
			t.Errorf("GOMAXPROCS %d: %d iterations, x %#x; GOMAXPROCS 1: %d, %#x", procs, st.Iterations, xHash(x), first.Iterations, firstX)
		}
	}
}
