package solver

import (
	"math"
	"math/rand"
	"testing"

	"spcg/internal/dist"
	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// testProblem builds A, b with a known solution x* = 1/√n (the paper's
// right-hand-side construction, §5.1).
func testProblem(a *sparse.CSR) (b, xTrue []float64) {
	n := a.Dim()
	xTrue = make([]float64, n)
	vec.Fill(xTrue, 1/math.Sqrt(float64(n)))
	b = make([]float64, n)
	a.MulVec(b, xTrue)
	return b, xTrue
}

func solutionError(x, xTrue []float64) float64 {
	d := make([]float64, len(x))
	vec.Sub(d, x, xTrue)
	return vec.Norm2(d) / vec.Norm2(xTrue)
}

func TestPCGSolvesPoisson(t *testing.T) {
	for _, crit := range []Criterion{TrueResidual2Norm, RecursiveResidual2Norm, RecursiveResidualMNorm} {
		a := sparse.Poisson2D(20, 20)
		b, xTrue := testProblem(a)
		m, err := precond.NewJacobi(a)
		if err != nil {
			t.Fatal(err)
		}
		x, stats, err := PCG(a, m, b, Options{Tol: 1e-10, Criterion: crit})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Converged {
			t.Fatalf("%v: did not converge: %+v", crit, stats)
		}
		if e := solutionError(x, xTrue); e > 1e-8 {
			t.Fatalf("%v: solution error %v", crit, e)
		}
		if stats.TrueRelResidual > 1e-8 {
			t.Fatalf("%v: true residual %v", crit, stats.TrueRelResidual)
		}
		if stats.Iterations <= 0 || stats.Iterations > 200 {
			t.Fatalf("%v: iterations = %d", crit, stats.Iterations)
		}
		if len(stats.History) == 0 || len(stats.History) != stats.Heartbeats {
			t.Fatalf("%v: history has %d entries for %d checks", crit, len(stats.History), stats.Heartbeats)
		}
	}
}

func TestPCGCommunicationPattern(t *testing.T) {
	// Standard PCG performs exactly 2 single-value allreduces per iteration
	// (M-norm criterion adds nothing) — the bottleneck the paper attacks.
	a := sparse.Poisson2D(24, 24)
	b, _ := testProblem(a)
	m, _ := precond.NewJacobi(a)
	machine := dist.DefaultMachine()
	machine.RanksPerNode = 8
	cl, err := dist.NewCluster(machine, 2, a)
	if err != nil {
		t.Fatal(err)
	}
	tr := dist.NewTracker(cl)
	_, stats, err := PCG(a, m, b, Options{Tol: 1e-9, Criterion: RecursiveResidualMNorm, Tracker: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatal("did not converge")
	}
	// 1 initial rho allreduce + 2 per iteration.
	want := 1 + 2*stats.Iterations
	if stats.Allreduces != want {
		t.Fatalf("allreduces = %d, want %d (iters=%d)", stats.Allreduces, want, stats.Iterations)
	}
	// 1 initial SpMV + 1 per iteration.
	if stats.MVProducts != 1+stats.Iterations {
		t.Fatalf("MVs = %d, want %d", stats.MVProducts, 1+stats.Iterations)
	}
	if stats.SimTime <= 0 {
		t.Fatal("no simulated time")
	}
}

func TestPCGZeroRHS(t *testing.T) {
	a := sparse.Poisson1D(10)
	b := make([]float64, 10)
	x, stats, err := PCG(a, nil, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged || stats.Iterations != 0 {
		t.Fatalf("zero rhs: %+v", stats)
	}
	if vec.Norm2(x) != 0 {
		t.Fatal("x should stay zero")
	}
}

func TestPCGWithX0(t *testing.T) {
	a := sparse.Poisson1D(30)
	b, xTrue := testProblem(a)
	x0 := append([]float64(nil), xTrue...) // start at the solution
	_, stats, err := PCG(a, nil, b, Options{X0: x0, Criterion: TrueResidual2Norm})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged || stats.Iterations != 0 {
		t.Fatalf("exact x0 should converge immediately: %+v", stats)
	}
}

func TestPCGDimensionErrors(t *testing.T) {
	a := sparse.Poisson1D(10)
	if _, _, err := PCG(a, nil, make([]float64, 5), Options{}); err == nil {
		t.Fatal("bad b accepted")
	}
	if _, _, err := PCG(a, nil, make([]float64, 10), Options{X0: make([]float64, 3)}); err == nil {
		t.Fatal("bad x0 accepted")
	}
	if _, _, err := PCG(nil, nil, nil, Options{}); err == nil {
		t.Fatal("nil matrix accepted")
	}
	m, _ := precond.NewJacobi(sparse.Poisson1D(5))
	if _, _, err := PCG(a, m, make([]float64, 10), Options{}); err == nil {
		t.Fatal("mismatched preconditioner accepted")
	}
}

func TestPCGMaxIterationsCap(t *testing.T) {
	a := sparse.Anisotropic2D(30, 30, 1e-4)
	b, _ := testProblem(a)
	_, stats, err := PCG(a, nil, b, Options{Tol: 1e-14, MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Converged {
		t.Fatal("should not converge in 3 iterations")
	}
	if stats.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3", stats.Iterations)
	}
}

func TestPCG3MatchesPCGIterates(t *testing.T) {
	// In exact arithmetic PCG3 produces the same iterates as PCG; on a
	// well-conditioned problem the iteration counts must agree closely.
	a := sparse.Poisson2D(16, 16)
	b, xTrue := testProblem(a)
	m, _ := precond.NewJacobi(a)
	_, s1, err := PCG(a, m, b, Options{Tol: 1e-9, Criterion: RecursiveResidualMNorm})
	if err != nil {
		t.Fatal(err)
	}
	x3, s3, err := PCG3(a, m, b, Options{Tol: 1e-9, Criterion: RecursiveResidualMNorm})
	if err != nil {
		t.Fatal(err)
	}
	if !s3.Converged {
		t.Fatal("PCG3 did not converge")
	}
	if e := solutionError(x3, xTrue); e > 1e-7 {
		t.Fatalf("PCG3 solution error %v", e)
	}
	if diff := s3.Iterations - s1.Iterations; diff < -2 || diff > 2 {
		t.Fatalf("PCG3 iterations %d far from PCG %d", s3.Iterations, s1.Iterations)
	}
}

func TestPCG3SingleReductionPerIteration(t *testing.T) {
	a := sparse.Poisson2D(16, 16)
	b, _ := testProblem(a)
	machine := dist.DefaultMachine()
	machine.RanksPerNode = 4
	cl, err := dist.NewCluster(machine, 1, a)
	if err != nil {
		t.Fatal(err)
	}
	tr := dist.NewTracker(cl)
	_, stats, err := PCG3(a, nil, b, Options{Criterion: RecursiveResidualMNorm, Tracker: tr})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + stats.Iterations // initial rho + one fused allreduce per iter
	if stats.Allreduces != want {
		t.Fatalf("allreduces = %d, want %d", stats.Allreduces, want)
	}
}

func TestPCG3Criteria(t *testing.T) {
	for _, crit := range []Criterion{TrueResidual2Norm, RecursiveResidual2Norm, RecursiveResidualMNorm} {
		a := sparse.Poisson1D(50)
		b, xTrue := testProblem(a)
		x, stats, err := PCG3(a, nil, b, Options{Criterion: crit, Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Converged {
			t.Fatalf("%v: did not converge", crit)
		}
		if e := solutionError(x, xTrue); e > 1e-7 {
			t.Fatalf("%v: error %v", crit, e)
		}
	}
}

func TestRandomSpectrumHardProblem(t *testing.T) {
	// A spread spectrum slows CG down per theory: κ=1e4 needs ≈ √κ·ln(2/ε)/2
	// iterations; sanity-check the iteration count scale.
	spec := sparse.GeometricSpectrum(200, 1e-2, 1e4)
	a := sparse.SPDWithSpectrum(spec, 600, 17)
	b, xTrue := testProblem(a)
	x, stats, err := PCG(a, nil, b, Options{Tol: 1e-8, MaxIterations: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatalf("did not converge: %+v", stats.FinalRelative)
	}
	if e := solutionError(x, xTrue); e > 1e-5 {
		t.Fatalf("solution error %v", e)
	}
	if stats.Iterations < 20 {
		t.Fatalf("suspiciously few iterations (%d) for κ=1e4", stats.Iterations)
	}
}

func randSPDVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestPCGRandomRHSQuickish(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := sparse.VarCoeff2D(12, 12, 2, 3)
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		b := randSPDVec(rng, a.Dim())
		x, stats, err := PCG(a, m, b, Options{Tol: 1e-10, MaxIterations: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Converged {
			t.Fatalf("trial %d did not converge", trial)
		}
		// Verify A·x ≈ b directly.
		ax := make([]float64, a.Dim())
		a.MulVec(ax, x)
		diff := make([]float64, a.Dim())
		vec.Sub(diff, ax, b)
		if rel := vec.Norm2(diff) / vec.Norm2(b); rel > 1e-8 {
			t.Fatalf("trial %d residual %v", trial, rel)
		}
	}
}
