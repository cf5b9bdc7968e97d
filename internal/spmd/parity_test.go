package spmd

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"spcg/internal/basis"
	"spcg/internal/eig"
	"spcg/internal/pool"
	"spcg/internal/precond"
	"spcg/internal/solver"
	"spcg/internal/sparse"
	"spcg/internal/suite"
	"spcg/internal/vec"
)

// TestCrossBackendParity runs the one solver core on both execution backends
// and compares them: at p=1 — same kernels, same order, a reduction over one
// contribution — the rank backend must reproduce the local backend (on one
// pool worker) bit for bit; at p>1 only the summation order of the
// reductions differs. The collective counts pin the communication pattern:
// 1+2·it for PCG, 2·outer+1 for the s-step methods (the boundary test's
// small collective plus the Gram reduction, and one last boundary test).
// The spmd wrappers expose three of the bodies; all six that RunOn can name
// are held to the same parity here.
//
// RecvTimeout turns a rank that left the common control flow into an error
// within seconds; run under -race (CI does) it also pins that no rank writes
// to a reduced buffer another rank reads.
func TestCrossBackendParity(t *testing.T) {
	prev := pool.SetDefaultWorkers(1)
	defer pool.SetDefaultWorkers(prev)

	const s, tol = 5, 1e-9
	dubcova, ok := suite.ByName("Dubcova3")
	if !ok {
		t.Fatal("suite problem Dubcova3 missing")
	}
	for _, prob := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"poisson2d:32", sparse.Poisson2D(32, 32)},
		{"suite:Dubcova3/256", dubcova.Build(256)},
	} {
		a := prob.a
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
		opts := solver.Options{
			S: s, BasisParams: basis.ChebyshevParams(s, est.LambdaMin, est.LambdaMax),
			Tol: tol, MaxIterations: 10 * n, Criterion: solver.RecursiveResidualMNorm,
		}
		for _, method := range []string{"pcg", "spcg", "capcg", "pcg3", "capcg3", "spcgmon"} {
			opts := opts
			if method == "spcgmon" {
				opts.BasisParams = nil // monomial by construction
			}
			local, _ := solver.ByName(method)
			xLoc, stLoc, err := local(a, m, b, opts)
			if err != nil || !stLoc.Converged {
				t.Fatalf("%s %s: local backend: err %v, stats %+v", prob.name, method, err, stLoc)
			}
			for p := 1; p <= 4; p++ {
				t.Run(fmt.Sprintf("%s/%s/p=%d", prob.name, method, p), func(t *testing.T) {
					w := NewWorld(p)
					w.RecvTimeout = 10 * time.Second
					res, err := solve(w, method, a, b, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Converged {
						t.Fatal("did not converge")
					}
					if p == 1 {
						if res.Iterations != stLoc.Iterations {
							t.Fatalf("%d iterations, local backend %d", res.Iterations, stLoc.Iterations)
						}
						for i := range xLoc {
							if res.X[i] != xLoc[i] {
								t.Fatalf("x[%d] = %v differs from the local backend's %v", i, res.X[i], xLoc[i])
							}
						}
					} else {
						if d := res.Iterations - stLoc.Iterations; d < -s || d > s {
							t.Fatalf("%d iterations, local backend %d", res.Iterations, stLoc.Iterations)
						}
						diff := make([]float64, n)
						vec.Sub(diff, res.X, xLoc)
						if rel := vec.Norm2(diff) / vec.Norm2(xLoc); rel > 1e-8 {
							t.Fatalf("solutions differ by %v", rel)
						}
					}
					var want int
					switch method {
					case "pcg":
						want = 1 + 2*res.Iterations
					case "pcg3": // both dots of an iteration share a collective
						want = 1 + res.Iterations
					default:
						want = 2*(res.Iterations/s) + 1
					}
					if res.Allreduces != want {
						t.Fatalf("%d collectives for %d iterations, want %d", res.Allreduces, res.Iterations, want)
					}
				})
			}
		}
	}
}

// TestBreakdownIsAnError: all three wrappers report a numerical breakdown
// that stopped the run as an error wrapping solver.ErrBreakdown — none
// returns an unconverged result with a nil error.
func TestBreakdownIsAnError(t *testing.T) {
	// Positive diagonal, strongly indefinite: pᵀAp < 0 in the first step.
	coo := sparse.NewCOO(6)
	for i := 0; i < 6; i++ {
		coo.Add(i, i, 1)
		if i > 0 {
			coo.AddSym(i, i-1, 4)
		}
	}
	a := coo.ToCSR()
	b := []float64{1, -1, 1, -1, 1, -1}
	params := basis.MonomialParams(2)
	for name, run := range map[string]func() (*Result, error){
		"pcg":   func() (*Result, error) { return PCGJacobi(a, b, 2, 1e-12, 0) },
		"spcg":  func() (*Result, error) { return SPCGJacobi(a, b, 2, 2, params, 1e-12, 0) },
		"capcg": func() (*Result, error) { return CAPCGJacobi(a, b, 2, 2, params, 1e-12, 0) },
	} {
		res, err := run()
		if !errors.Is(err, solver.ErrBreakdown) {
			t.Errorf("%s: res %+v, err %v; want an error wrapping solver.ErrBreakdown", name, res, err)
		}
	}
}
