package solver

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"spcg/internal/basis"
	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// TestAllSolversSolveRandomSPDQuick is the cross-solver property test: for
// random SPD systems with prescribed spectra and random right-hand sides,
// every solver must deliver A·x ≈ b.
func TestAllSolversSolveRandomSPDQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60 + rng.Intn(80)
		cond := 10 + rng.Float64()*1e3
		spec := sparse.GeometricSpectrum(n, 0.5, cond)
		a := sparse.SPDWithSpectrum(spec, 3*n, seed)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		m, err := precond.NewJacobi(a)
		if err != nil {
			// Rotations can push a diagonal entry non-positive only if the
			// matrix were not SPD; treat as generator failure.
			return false
		}
		s := 2 + rng.Intn(4)
		opts := Options{S: s, Basis: basis.Chebyshev, Tol: 1e-8, MaxIterations: 4000, Criterion: TrueResidual2Norm}
		// Per-solver tolerances follow the documented attainable-accuracy
		// ordering (DESIGN.md): the block-Gram (sPCG) and three-term
		// (CA-PCG3) formulations stagnate earlier than the two-term methods.
		runs := []struct {
			run Method
			tol float64
		}{
			{PCG, 1e-8}, {PCG3, 1e-7}, {SPCG, 1e-5},
			{CAPCG, 1e-8}, {CAPCG3, 1e-5}, {SPCGAdaptive, 1e-5},
		}
		for ri, rc := range runs {
			run := rc.run
			opts.Tol = rc.tol
			x, stats, err := run(a, m, b, opts)
			if err != nil {
				t.Logf("seed %d solver %d err: %v", seed, ri, err)
				return false
			}
			if !stats.Converged {
				t.Logf("seed %d solver %d s=%d n=%d cond=%.0f: rel %v breakdown %v", seed, ri, s, n, cond, stats.FinalRelative, stats.Breakdown)
				return false
			}
			ax := make([]float64, n)
			a.MulVec(ax, x)
			diff := make([]float64, n)
			vec.Sub(diff, ax, b)
			if vec.Norm2(diff) > 100*rc.tol*vec.Norm2(b) {
				return false
			}
		}
		// sPCGmon is the numerically weakest variant (monomial only): run it
		// at a small fixed s where Chronopoulos & Gear report stability.
		opts.S = 3
		opts.Tol = 1e-5
		_, stats, err := SPCGMon(a, m, b, opts)
		if err != nil || !stats.Converged {
			t.Logf("seed %d spcgmon: %v / %+v", seed, err, stats)
			return false
		}
		return true
	}
	// Fixed generator: the property must hold on these instances forever;
	// fresh random seeds belong in fuzzing, not CI.
	if err := quick.Check(f, &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

func TestCriterionStrings(t *testing.T) {
	if TrueResidual2Norm.String() != "true-2norm" ||
		RecursiveResidual2Norm.String() != "recursive-2norm" ||
		RecursiveResidualMNorm.String() != "recursive-mnorm" {
		t.Fatal("criterion names changed")
	}
	if Criterion(42).String() != "solver.Criterion(42)" {
		t.Fatal("unknown criterion formatting")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.S != 10 || o.Tol != 1e-9 || o.MaxIterations != 12000 {
		t.Fatalf("defaults = %+v", o)
	}
	o = Options{S: 3, Tol: 1e-4, MaxIterations: 7}.withDefaults()
	if o.S != 3 || o.Tol != 1e-4 || o.MaxIterations != 7 {
		t.Fatal("explicit values overridden")
	}
}

func TestBreakdownErrorWrapping(t *testing.T) {
	// Indefinite matrix: PCG must report a wrapped ErrBreakdown.
	coo := sparse.NewCOO(4)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, -1)
	coo.Add(2, 2, 1)
	coo.Add(3, 3, 1)
	a := coo.ToCSR()
	b := []float64{1, 1, 1, 1}
	_, stats, err := PCG(a, nil, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Converged {
		t.Fatal("indefinite system reported converged")
	}
	if stats.Breakdown == nil || !errors.Is(stats.Breakdown, ErrBreakdown) {
		t.Fatalf("breakdown = %v, want wrapped ErrBreakdown", stats.Breakdown)
	}
}

func TestSStepX0(t *testing.T) {
	// Nonzero initial guesses must be honored by every s-step solver.
	a := sparse.Poisson2D(12, 12)
	b, xTrue := testProblem(a)
	x0 := make([]float64, a.Dim())
	for i := range x0 {
		x0[i] = xTrue[i] * 0.9 // start close to the solution
	}
	for _, run := range []Method{SPCG, SPCGMon, CAPCG, CAPCG3} {
		x, stats, err := run(a, nil, b, Options{S: 3, Basis: basis.Chebyshev, X0: x0, Tol: 1e-9, Criterion: TrueResidual2Norm})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Converged {
			t.Fatalf("did not converge from x0: %+v", stats.Breakdown)
		}
		if e := solutionError(x, xTrue); e > 1e-6 {
			t.Fatalf("solution error %v", e)
		}
	}
}
