package solver

import (
	"sync"
	"testing"

	"spcg/internal/basis"
	"spcg/internal/eig"
	"spcg/internal/precond"
	"spcg/internal/sparse"
)

// TestConcurrentSolvesShareState enforces the concurrency contract the solve
// service depends on: one *sparse.CSR, one preconditioner instance of every
// type, and one *eig.Estimate may be shared by many simultaneous solver
// goroutines. The test is meaningful under -race (CI runs it there): any
// write to shared state during a solve is a hard failure.
//
// Read-only-safe after construction (verified here): sparse.CSR,
// precond.Identity/Jacobi/Chebyshev/SSOR/IC0/BlockJacobi, eig.Estimate,
// basis.Params. NOT shareable: Options.Tracker and Options.Injector, which
// mutate internal counters — each concurrent run needs its own (the service
// never sets them).
func TestConcurrentSolvesShareState(t *testing.T) {
	a := sparse.Poisson2D(20, 20)
	jac, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	est, err := eig.RitzFromPCG(a, jac.Apply, eig.Options{Iterations: 12})
	if err != nil {
		t.Fatal(err)
	}
	cheb, err := precond.NewChebyshev(a, 3, est.LambdaMin, est.LambdaMax)
	if err != nil {
		t.Fatal(err)
	}
	ssor, err := precond.NewSSOR(a, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	ic0, err := precond.NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := precond.NewBlockJacobi(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	precs := []precond.Interface{precond.NewIdentity(a.Dim()), jac, cheb, ssor, ic0, bj}

	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1
	}

	type run struct {
		name  string
		solve Method
	}
	runs := []run{
		{"pcg", PCG},
		{"pcg3", PCG3},
		{"spcg", SPCG},
		{"capcg", CAPCG},
		{"capcg3", CAPCG3},
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(precs)*len(runs)*2)
	for _, m := range precs {
		for _, rn := range runs {
			for rep := 0; rep < 2; rep++ {
				wg.Add(1)
				go func(m precond.Interface, rn run) {
					defer wg.Done()
					// Shared Spectrum: every goroutine reads the same Estimate.
					opts := Options{S: 4, Basis: basis.Chebyshev, Spectrum: est, Tol: 1e-8, MaxIterations: 400}
					_, stats, err := rn.solve(a, m, b, opts)
					if err != nil {
						errs <- err
						return
					}
					if stats.Breakdown != nil && !stats.Converged {
						// Numerical outcome is method/preconditioner dependent;
						// only data races and input errors fail the test.
						t.Logf("%s/%s: breakdown %v (ok)", rn.name, m.Name(), stats.Breakdown)
					}
				}(m, rn)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent solve error: %v", err)
	}
}
