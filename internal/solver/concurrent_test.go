package solver

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"spcg/internal/basis"
	"spcg/internal/eig"
	"spcg/internal/pool"
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

// TestConcurrentSolvesMatchLoneSolves: two solves side by side share the
// kernel team — a kernel whose dispatch finds the team running the other
// solve's runs its parts on its own goroutine — and each must return, bit for
// bit, the x and Stats of the same solve run alone. The matrix is above the
// pooling thresholds (n = 36 864, nnz ≈ 183 000) and the solves are capped,
// not converged: the check is the bits, at GOMAXPROCS 2 and 4.
func TestConcurrentSolvesMatchLoneSolves(t *testing.T) {
	a := sparse.Poisson2D(192, 192)
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	var rhs [2][]float64
	for k := range rhs {
		rhs[k] = make([]float64, a.Dim())
		for i := range rhs[k] {
			rhs[k][i] = math.Sin(float64(i)*0.37+float64(k)) + 0.25
		}
	}
	type result struct {
		x  []float64
		st *Stats
	}
	opts := Options{S: 4, Basis: basis.Chebyshev, Tol: 1e-12, MaxIterations: 40}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(0))
	busyBefore := pool.ReadStats().BusyInline
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		pool.SetDefaultWorkers(procs)
		for _, method := range []struct {
			name  string
			solve Method
		}{{"pcg", PCG}, {"spcg", SPCG}, {"capcg", CAPCG}, {"capcg3", CAPCG3}} {
			solve := func(b []float64) result {
				x, st, err := method.solve(a, m, b, opts)
				if err != nil {
					t.Errorf("GOMAXPROCS %d, %s: %v", procs, method.name, err)
				}
				return result{x, st}
			}
			var alone, together [2]result
			for k := range rhs {
				alone[k] = solve(rhs[k])
			}
			var wg sync.WaitGroup
			for k := range rhs {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					together[k] = solve(rhs[k])
				}(k)
			}
			wg.Wait()
			for k := range rhs {
				if h, want := xHash(together[k].x), xHash(alone[k].x); h != want {
					t.Errorf("GOMAXPROCS %d, %s, rhs %d: x %#x beside another solve, %#x alone", procs, method.name, k, h, want)
				}
				if !reflect.DeepEqual(together[k].st, alone[k].st) {
					t.Errorf("GOMAXPROCS %d, %s, rhs %d: Stats beside another solve\n%+v\nalone\n%+v", procs, method.name, k, together[k].st, alone[k].st)
				}
			}
		}
	}
	if pool.ReadStats().BusyInline == busyBefore {
		t.Error("no kernel of the concurrent solves found the team busy")
	}
}
