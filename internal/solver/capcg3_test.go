package solver

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"spcg/internal/basis"
	"spcg/internal/dist"
	"spcg/internal/pool"
	"spcg/internal/precond"
	"spcg/internal/sparse"
)

func TestCAPCG3MatchesPCG3OnEasyProblem(t *testing.T) {
	a := sparse.Poisson2D(16, 16)
	b, xTrue := testProblem(a)
	m, _ := precond.NewJacobi(a)
	_, p3, err := PCG3(a, m, b, Options{Tol: 1e-9, Criterion: RecursiveResidualMNorm})
	if err != nil {
		t.Fatal(err)
	}
	for _, bt := range []basis.Type{basis.Monomial, basis.Newton, basis.Chebyshev} {
		for _, s := range []int{2, 4} {
			x, ss, err := CAPCG3(a, m, b, Options{S: s, Basis: bt, Tol: 1e-9, Criterion: RecursiveResidualMNorm})
			if err != nil {
				t.Fatalf("%v s=%d: %v", bt, s, err)
			}
			if !ss.Converged {
				t.Fatalf("%v s=%d: did not converge (%v)", bt, s, ss.Breakdown)
			}
			if e := solutionError(x, xTrue); e > 1e-6 {
				t.Fatalf("%v s=%d: solution error %v", bt, s, e)
			}
			if ss.Iterations < p3.Iterations-s || ss.Iterations > p3.Iterations+2*s {
				t.Fatalf("%v s=%d: iterations %d vs PCG3 %d", bt, s, ss.Iterations, p3.Iterations)
			}
		}
	}
}

func TestCAPCG3CommunicationAndWorkCounts(t *testing.T) {
	// Table 1's CA-PCG3 row: s MVs and s preconditioner applications per
	// outer iteration, one (2s+1)²-value allreduce.
	a := sparse.Poisson2D(20, 20)
	b, _ := testProblem(a)
	m, _ := precond.NewJacobi(a)
	machine := dist.DefaultMachine()
	machine.RanksPerNode = 8
	cl, err := dist.NewCluster(machine, 1, a)
	if err != nil {
		t.Fatal(err)
	}
	tr := dist.NewTracker(cl)
	s := 5
	_, ss, err := CAPCG3(a, m, b, Options{S: s, Basis: basis.Chebyshev, Criterion: RecursiveResidualMNorm, Tracker: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Converged {
		t.Fatalf("did not converge: %v", ss.Breakdown)
	}
	k := ss.OuterIterations
	if ss.Allreduces != k {
		t.Fatalf("allreduces = %d, outer = %d", ss.Allreduces, k)
	}
	if ss.AllreduceValues != k*(2*s+1)*(2*s+1) {
		t.Fatalf("allreduce values = %d, want %d", ss.AllreduceValues, k*(2*s+1)*(2*s+1))
	}
	// 1 initial + s per outer iteration.
	if ss.MVProducts != 1+s*k {
		t.Fatalf("MVs = %d, want %d", ss.MVProducts, 1+s*k)
	}
	// s per outer iteration + 1 per boundary check (incl. the converged one).
	if ss.PrecApplies != s*k+k+1 {
		t.Fatalf("prec applies = %d, outer = %d", ss.PrecApplies, k)
	}
}

func TestCAPCG3ChebyshevHardProblem(t *testing.T) {
	a := sparse.VarCoeff2D(30, 30, 3, 7)
	b, xTrue := testProblem(a)
	m, _ := precond.NewJacobi(a)
	x, ss, err := CAPCG3(a, m, b, Options{S: 10, Basis: basis.Chebyshev, Tol: 1e-9, MaxIterations: 8000, Criterion: TrueResidual2Norm})
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Converged {
		t.Fatalf("did not converge: %v (rel %v)", ss.Breakdown, ss.FinalRelative)
	}
	if e := solutionError(x, xTrue); e > 1e-5 {
		t.Fatalf("solution error %v", e)
	}
}

func TestCAPCG3MonomialDegradesAtLargeS(t *testing.T) {
	// The paper's Table 2: CA-PCG3 with the monomial basis converges for
	// only 2/40 matrices at s=10; with Chebyshev it converges for ~half.
	a := sparse.Anisotropic2D(40, 40, 1e-3)
	b, _ := testProblem(a)
	m, _ := precond.NewJacobi(a)
	opts := Options{S: 10, Tol: 1e-9, MaxIterations: 4000, Criterion: TrueResidual2Norm}
	opts.Basis = basis.Monomial
	_, mon, err := CAPCG3(a, m, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Basis = basis.Chebyshev
	opts.Spectrum = nil
	_, cheb, err := CAPCG3(a, m, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !cheb.Converged {
		t.Fatalf("Chebyshev basis did not converge: %v (rel %v)", cheb.Breakdown, cheb.FinalRelative)
	}
	if mon.Converged && mon.Iterations <= cheb.Iterations {
		t.Fatalf("monomial (%d) unexpectedly matched Chebyshev (%d)", mon.Iterations, cheb.Iterations)
	}
}

func TestCAPCG3Validation(t *testing.T) {
	a := sparse.Poisson1D(10)
	if _, _, err := CAPCG3(a, nil, make([]float64, 4), Options{S: 2}); err == nil {
		t.Fatal("bad b accepted")
	}
	if _, _, err := CAPCG3(a, nil, make([]float64, 10), Options{S: 2, X0: make([]float64, 2)}); err == nil {
		t.Fatal("bad x0 accepted")
	}
}

func TestCAPCG3ZeroRHS(t *testing.T) {
	a := sparse.Poisson1D(12)
	_, ss, err := CAPCG3(a, nil, make([]float64, 12), Options{S: 3, Criterion: RecursiveResidualMNorm})
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Converged || ss.Iterations != 0 {
		t.Fatalf("zero rhs: %+v", ss)
	}
}

func TestAllSStepSolversAgreeOnSolution(t *testing.T) {
	// Cross-solver integration: all methods, all bases, one hard-ish
	// problem; every converging run must deliver the same solution.
	a := sparse.VarCoeff2D(20, 20, 2, 11)
	b, xTrue := testProblem(a)
	m, _ := precond.NewJacobi(a)
	type runFn func() (string, []float64, *Stats, error)
	runs := []runFn{
		func() (string, []float64, *Stats, error) {
			x, s, err := PCG(a, m, b, Options{Tol: 1e-10, Criterion: TrueResidual2Norm})
			return "pcg", x, s, err
		},
		func() (string, []float64, *Stats, error) {
			x, s, err := PCG3(a, m, b, Options{Tol: 1e-10, Criterion: TrueResidual2Norm})
			return "pcg3", x, s, err
		},
		func() (string, []float64, *Stats, error) {
			x, s, err := SPCG(a, m, b, Options{S: 6, Basis: basis.Chebyshev, Tol: 1e-10, Criterion: TrueResidual2Norm})
			return "spcg", x, s, err
		},
		func() (string, []float64, *Stats, error) {
			x, s, err := SPCGMon(a, m, b, Options{S: 3, Tol: 1e-10, Criterion: TrueResidual2Norm})
			return "spcgmon", x, s, err
		},
		func() (string, []float64, *Stats, error) {
			x, s, err := CAPCG(a, m, b, Options{S: 6, Basis: basis.Chebyshev, Tol: 1e-10, Criterion: TrueResidual2Norm})
			return "capcg", x, s, err
		},
		func() (string, []float64, *Stats, error) {
			x, s, err := CAPCG3(a, m, b, Options{S: 6, Basis: basis.Chebyshev, Tol: 1e-10, Criterion: TrueResidual2Norm})
			return "capcg3", x, s, err
		},
	}
	for _, run := range runs {
		name, x, ss, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !ss.Converged {
			t.Fatalf("%s: did not converge (%v, rel %v)", name, ss.Breakdown, ss.FinalRelative)
		}
		if e := solutionError(x, xTrue); e > 1e-6 {
			t.Fatalf("%s: solution error %v", name, e)
		}
	}
}

// TestCAPCG3MidBlockBreakdown: a breakdown inside a block ends the solve after
// the steps before it, and only those reach x, r and u — the scalars of the
// whole block are computed before any vector work, so a step past the
// breakdown must never be applied. The values were recorded with a loop that
// updated each step's vectors right after its scalars. The systems, each
// breaking down at a step that is not the first of its block: lucky
// convergence inside the second block (six distinct eigenvalues, s = 4) and a
// rank-deficient monomial basis in the first block. A third, a hub graph,
// makes its last 1 % gain in b − A·x (4.5e-12) at iteration 36 and then
// diverges until μ underflows mid-block at iteration 462; its stagnation
// window ends it first, at the block boundary at iteration 436 (values
// recorded with the window in place), on the same bits at any GOMAXPROCS.
func TestCAPCG3MidBlockBreakdown(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("values recorded on amd64")
	}
	fewEigen := func() *sparse.CSR {
		spec := make([]float64, 60)
		for i := range spec {
			spec[i] = 1 + float64(i%6)
		}
		return sparse.SPDWithSpectrum(spec, 120, 5)
	}
	cases := []struct {
		name      string
		a         *sparse.CSR
		jacobi    bool
		basis     basis.Type
		s         int
		crit      Criterion
		site      string
		xHash     uint64
		iters     int
		outer     int
		converged bool
	}{
		{"lucky convergence", fewEigen(), false, basis.Chebyshev, 4, RecursiveResidualMNorm, siteCurv, 0xe4fc2dfbf9b90801, 6, 2, true},
		{"monomial basis", fewEigen(), false, basis.Monomial, 10, RecursiveResidualMNorm, siteCurv, 0x32f9010817f2dd86, 6, 1, false},
		{"hub graph", sparse.HubGraphLaplacian(400, 2, 10, 30, 1e-3, 7), true, basis.Chebyshev, 4, TrueResidual2Norm, SiteStagnation, 0xa6ebe16ef9707639, 436, 109, false},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		pool.SetDefaultWorkers(procs)
		for _, tc := range cases {
			b := make([]float64, tc.a.Dim())
			for i := range b {
				b[i] = math.Sin(float64(i)*0.37) + 0.25
			}
			var m precond.Interface
			if tc.jacobi {
				m, _ = precond.NewJacobi(tc.a)
			}
			x, st, err := CAPCG3(tc.a, m, b, Options{S: tc.s, Basis: tc.basis, Tol: 1e-12, MaxIterations: 3000, Criterion: tc.crit})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			var be *BreakdownError
			if !errors.As(st.Breakdown, &be) || be.Site != tc.site {
				t.Fatalf("GOMAXPROCS %d, %s: breakdown %v, want one at %q", procs, tc.name, st.Breakdown, tc.site)
			}
			if h := xHash(x); h != tc.xHash || st.Iterations != tc.iters || st.OuterIterations != tc.outer || st.Converged != tc.converged {
				t.Errorf("GOMAXPROCS %d, %s: x %#x, %d iterations, %d outer, converged %v; want %#x, %d, %d, %v",
					procs, tc.name, h, st.Iterations, st.OuterIterations, st.Converged, tc.xHash, tc.iters, tc.outer, tc.converged)
			}
		}
	}
}
