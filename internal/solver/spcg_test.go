package solver

import (
	"math"
	"testing"

	"spcg/internal/basis"
	"spcg/internal/dist"
	"spcg/internal/precond"
	"spcg/internal/sparse"
)

func TestSPCGMatchesPCGOnEasyProblem(t *testing.T) {
	// In exact arithmetic sPCG reproduces PCG's iterates; on a
	// well-conditioned problem with small s the iteration counts must agree
	// to within one block.
	a := sparse.Poisson2D(16, 16)
	b, xTrue := testProblem(a)
	m, _ := precond.NewJacobi(a)
	_, ps, err := PCG(a, m, b, Options{Tol: 1e-9, Criterion: RecursiveResidualMNorm})
	if err != nil {
		t.Fatal(err)
	}
	for _, bt := range []basis.Type{basis.Monomial, basis.Newton, basis.Chebyshev} {
		for _, s := range []int{2, 4} {
			x, ss, err := SPCG(a, m, b, Options{S: s, Basis: bt, Tol: 1e-9, Criterion: RecursiveResidualMNorm})
			if err != nil {
				t.Fatalf("%v s=%d: %v", bt, s, err)
			}
			if !ss.Converged {
				t.Fatalf("%v s=%d: did not converge (%+v)", bt, s, ss.Breakdown)
			}
			if e := solutionError(x, xTrue); e > 1e-6 {
				t.Fatalf("%v s=%d: solution error %v", bt, s, e)
			}
			// sPCG checks every s steps, so it may overshoot by < s.
			if ss.Iterations < ps.Iterations-s || ss.Iterations > ps.Iterations+2*s {
				t.Fatalf("%v s=%d: iterations %d vs PCG %d", bt, s, ss.Iterations, ps.Iterations)
			}
		}
	}
}

func TestSPCGMonMatchesPCG(t *testing.T) {
	a := sparse.Poisson2D(14, 14)
	b, xTrue := testProblem(a)
	m, _ := precond.NewJacobi(a)
	_, ps, err := PCG(a, m, b, Options{Tol: 1e-9, Criterion: RecursiveResidualMNorm})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{2, 3, 5} {
		x, ss, err := SPCGMon(a, m, b, Options{S: s, Tol: 1e-9, Criterion: RecursiveResidualMNorm})
		if err != nil {
			t.Fatal(err)
		}
		if !ss.Converged {
			t.Fatalf("s=%d: did not converge (%v)", s, ss.Breakdown)
		}
		if e := solutionError(x, xTrue); e > 1e-6 {
			t.Fatalf("s=%d: solution error %v", s, e)
		}
		if ss.Iterations > ps.Iterations+2*s {
			t.Fatalf("s=%d: iterations %d vs PCG %d", s, ss.Iterations, ps.Iterations)
		}
	}
}

func TestSPCGSingleReductionPerOuterIteration(t *testing.T) {
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
	_, ss, err := SPCG(a, m, b, Options{S: s, Basis: basis.Chebyshev, Criterion: RecursiveResidualMNorm, Tracker: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Converged {
		t.Fatalf("did not converge: %v", ss.Breakdown)
	}
	// One allreduce per completed outer iteration (the converged check's
	// outer iteration performs none).
	if ss.Allreduces != ss.OuterIterations {
		t.Fatalf("allreduces = %d, outer = %d", ss.Allreduces, ss.OuterIterations)
	}
	// s SpMVs per outer iteration + 1 initial.
	if ss.MVProducts != 1+s*ss.OuterIterations {
		t.Fatalf("MVs = %d, outer = %d", ss.MVProducts, ss.OuterIterations)
	}
	// s preconditioner applications per outer iteration + 1 for the final check.
	if ss.PrecApplies != s*ss.OuterIterations+1 {
		t.Fatalf("prec applies = %d, outer = %d", ss.PrecApplies, ss.OuterIterations)
	}
}

func TestSPCGMonomialFailsAtLargeS(t *testing.T) {
	// The paper's Table 2 story: with s = 10 the monomial basis collapses on
	// anything nontrivial, while the Chebyshev basis converges.
	// Tolerance 1e-8: sPCG's attainable-accuracy floor (documented in
	// DESIGN.md; the paper's Table 2 shows the same stagnation as "-"
	// entries) sits near 1e-9 on this problem even with the good basis.
	a := sparse.Anisotropic2D(40, 40, 1e-3)
	b, _ := testProblem(a)
	m, _ := precond.NewJacobi(a)
	_, mon, err := SPCG(a, m, b, Options{S: 10, Basis: basis.Monomial, Tol: 1e-8, MaxIterations: 4000, Criterion: TrueResidual2Norm})
	if err != nil {
		t.Fatal(err)
	}
	_, cheb, err := SPCG(a, m, b, Options{S: 10, Basis: basis.Chebyshev, Tol: 1e-8, MaxIterations: 4000, Criterion: TrueResidual2Norm})
	if err != nil {
		t.Fatal(err)
	}
	if !cheb.Converged {
		t.Fatalf("Chebyshev basis did not converge: %v (rel %v)", cheb.Breakdown, cheb.FinalRelative)
	}
	if mon.Converged && mon.Iterations <= cheb.Iterations {
		t.Fatalf("monomial basis unexpectedly as good as Chebyshev (%d vs %d iterations)", mon.Iterations, cheb.Iterations)
	}
}

func TestSPCGBreakdownReported(t *testing.T) {
	// A wildly wrong spectral interval makes the Chebyshev basis useless;
	// the solver must stop with a breakdown or simply fail to converge, not
	// panic or report success.
	a := sparse.Poisson2D(12, 12)
	b, _ := testProblem(a)
	params := basis.ChebyshevParams(6, 1e6, 2e6) // interval far from spectrum
	_, ss, err := SPCG(a, nil, b, Options{S: 6, BasisParams: params, MaxIterations: 300, Criterion: TrueResidual2Norm})
	if err != nil {
		t.Fatal(err)
	}
	if ss.Converged && ss.TrueRelResidual > 1e-9 {
		t.Fatal("reported convergence with a bad residual")
	}
}

func TestSPCGRespectsMaxIterations(t *testing.T) {
	a := sparse.Anisotropic2D(25, 25, 1e-4)
	b, _ := testProblem(a)
	_, ss, err := SPCG(a, nil, b, Options{S: 5, Basis: basis.Chebyshev, Tol: 1e-13, MaxIterations: 20, Criterion: RecursiveResidualMNorm})
	if err != nil {
		t.Fatal(err)
	}
	if ss.Converged {
		t.Fatal("should not converge in 20 iterations")
	}
	if ss.Iterations > 20 {
		t.Fatalf("ran %d iterations past the cap", ss.Iterations)
	}
}

func TestSPCGDimensionValidation(t *testing.T) {
	a := sparse.Poisson1D(10)
	if _, _, err := SPCG(a, nil, make([]float64, 4), Options{S: 2}); err == nil {
		t.Fatal("bad b accepted")
	}
	if _, _, err := SPCG(a, nil, make([]float64, 10), Options{S: 2, X0: make([]float64, 2)}); err == nil {
		t.Fatal("bad x0 accepted")
	}
	bad := basis.MonomialParams(1) // degree < s
	if _, _, err := SPCG(a, nil, make([]float64, 10), Options{S: 3, BasisParams: bad}); err == nil {
		t.Fatal("short basis params accepted")
	}
}

func TestSPCGZeroRHS(t *testing.T) {
	a := sparse.Poisson1D(12)
	x, ss, err := SPCG(a, nil, make([]float64, 12), Options{S: 3, Criterion: RecursiveResidualMNorm})
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Converged || ss.Iterations != 0 {
		t.Fatalf("zero rhs: %+v", ss)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("x must stay zero")
		}
	}
}

func TestSPCGvsSPCGMonFiniteDifference(t *testing.T) {
	// sPCG with the monomial basis and sPCGmon are mathematically equivalent
	// but numerically different (paper §3.2). Both must work on an easy
	// problem and produce similar iteration counts.
	a := sparse.Poisson2D(12, 12)
	b, xTrue := testProblem(a)
	_, s1, err := SPCG(a, nil, b, Options{S: 3, Basis: basis.Monomial, Criterion: RecursiveResidualMNorm})
	if err != nil {
		t.Fatal(err)
	}
	x2, s2, err := SPCGMon(a, nil, b, Options{S: 3, Criterion: RecursiveResidualMNorm})
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Converged || !s2.Converged {
		t.Fatalf("convergence: sPCG=%v sPCGmon=%v", s1.Converged, s2.Converged)
	}
	if e := solutionError(x2, xTrue); e > 1e-6 {
		t.Fatalf("sPCGmon error %v", e)
	}
	if d := s1.Iterations - s2.Iterations; d < -6 || d > 6 {
		t.Fatalf("iteration counts diverge: %d vs %d", s1.Iterations, s2.Iterations)
	}
}

func TestSPCGTrueResidualCriterionMatchesReported(t *testing.T) {
	a := sparse.Poisson2D(15, 15)
	b, _ := testProblem(a)
	m, _ := precond.NewJacobi(a)
	_, ss, err := SPCG(a, m, b, Options{S: 4, Basis: basis.Chebyshev, Tol: 1e-9, Criterion: TrueResidual2Norm})
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Converged {
		t.Fatal("did not converge")
	}
	if ss.TrueRelResidual > 1e-9*1.01 {
		t.Fatalf("criterion said converged but true residual is %v", ss.TrueRelResidual)
	}
	if math.Abs(ss.FinalRelative-ss.TrueRelResidual) > 1e-9 {
		t.Fatalf("FinalRelative %v vs TrueRelResidual %v", ss.FinalRelative, ss.TrueRelResidual)
	}
}
