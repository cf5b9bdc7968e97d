package spmd

import (
	"math"
	"testing"

	"spcg/internal/basis"
	"spcg/internal/eig"
	"spcg/internal/precond"
	"spcg/internal/solver"
	"spcg/internal/sparse"
)

// solveAllocPins are the allocations of one warm solve on two ranks, world
// and distribution included, recorded at 5082abc (before the matrix powers
// step took one column form at every layer) by running exactly
// TestSolveAllocationsPinned's measurement there, the same at GOMAXPROCS 1,
// 2 and 4. A measurement now and then reads one or two more, depending on
// how the ranks were scheduled; that only ever adds, so the test takes the
// least of three.
var solveAllocPins = map[string]float64{
	"capcg": 459,
	"spcg":  2079,
}

// TestSolveAllocationsPinned: the rank backend's fused step hands its columns
// to the row kernel without allocating, so a solve allocates no more than the
// parent's did (Poisson 64×64, s = 4, Jacobi, both methods converge in 124
// iterations).
func TestSolveAllocationsPinned(t *testing.T) {
	const s = 4
	a := sparse.Poisson2D(64, 64)
	n := a.Dim()
	b := make([]float64, n)
	for i := range b {
		b[i] = float64((i*7919)%13) - 6
	}
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	est, err := eig.RitzFromPCG(a, m.Apply, eig.Options{Iterations: 2 * s})
	if err != nil {
		t.Fatal(err)
	}
	opts := solver.Options{S: s, BasisParams: basis.ChebyshevParams(s, est.LambdaMin, est.LambdaMax), Tol: 1e-9, MaxIterations: 10 * n}
	for method, pin := range solveAllocPins {
		got := math.Inf(1)
		for range 3 {
			got = min(got, testing.AllocsPerRun(3, func() {
				res, err := solveP(2, method, a, b, opts)
				if err != nil || !res.Converged {
					t.Fatalf("%s: err %v", method, err)
				}
			}))
		}
		if got > pin {
			t.Errorf("%s: %v allocations per solve, parent %v", method, got, pin)
		}
	}
}
