package eig

import (
	"errors"
	"math"
	"testing"

	"spcg/internal/sparse"
)

func poisson1DEig(n, k int) float64 {
	return 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
}

func TestRitzBoundsPoisson(t *testing.T) {
	n := 200
	a := sparse.Poisson1D(n)
	est, err := RitzFromPCG(a, nil, Options{Iterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	trueMin, trueMax := poisson1DEig(n, 1), poisson1DEig(n, n)
	// Ritz values lie inside the spectrum; widened bounds should cover most
	// of it and λmax must be approximated well (Lanczos converges fastest at
	// the extremes).
	if est.LambdaMax < trueMax*0.98 {
		t.Fatalf("λmax estimate %v too small vs true %v", est.LambdaMax, trueMax)
	}
	if est.LambdaMax > trueMax*1.2 {
		t.Fatalf("λmax estimate %v too large vs true %v", est.LambdaMax, trueMax)
	}
	// Ritz values sit inside the true spectrum, so the widened lower bound
	// can only undershoot the smallest Ritz value — never the true λmin by
	// more than the lower safety factor (default 10).
	if est.LambdaMin < trueMin/10-1e-12 {
		t.Fatalf("λmin estimate %v below widened true minimum %v", est.LambdaMin, trueMin/10)
	}
	if est.LambdaMin <= 0 || est.LambdaMin >= est.LambdaMax {
		t.Fatalf("λmin %v out of order with λmax %v", est.LambdaMin, est.LambdaMax)
	}
	// Ritz values sorted ascending and inside Gershgorin bounds.
	glo, ghi := a.Gershgorin()
	for i, v := range est.Ritz {
		if i > 0 && v < est.Ritz[i-1] {
			t.Fatal("Ritz values not sorted")
		}
		if v < glo-1e-9 || v > ghi+1e-9 {
			t.Fatalf("Ritz value %v outside Gershgorin [%v,%v]", v, glo, ghi)
		}
	}
}

func TestRitzWithJacobiPreconditioner(t *testing.T) {
	// For Poisson (constant diagonal 4), M⁻¹A has spectrum A's /4.
	n := 150
	a := sparse.Poisson1D(n)
	applyM := func(dst, src []float64) {
		for i := range src {
			dst[i] = src[i] / 2 // A's diagonal is 2 in 1D
		}
	}
	est, err := RitzFromPCG(a, applyM, Options{Iterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	trueMax := poisson1DEig(n, n) / 2
	if math.Abs(est.LambdaMax-trueMax*1.05) > 0.1*trueMax {
		t.Fatalf("preconditioned λmax %v, want ≈ %v·1.05", est.LambdaMax, trueMax)
	}
}

func TestRitzSmallMatrixExact(t *testing.T) {
	// With Iterations ≥ n, CG-Lanczos reproduces the full spectrum.
	n := 10
	a := sparse.Poisson1D(n)
	est, err := RitzFromPCG(a, nil, Options{Iterations: n})
	if err != nil {
		t.Fatal(err)
	}
	if est.Iterations > n {
		t.Fatalf("ran %d iterations on n=%d", est.Iterations, n)
	}
	for i, v := range est.Ritz {
		// Every Ritz value approximates some eigenvalue closely.
		bestDiff := math.Inf(1)
		for k := 1; k <= n; k++ {
			if d := math.Abs(v - poisson1DEig(n, k)); d < bestDiff {
				bestDiff = d
			}
		}
		if bestDiff > 1e-6 {
			t.Fatalf("Ritz[%d] = %v is %v away from nearest eigenvalue", i, v, bestDiff)
		}
	}
}

func TestRitzBreakdownOnIndefinite(t *testing.T) {
	// A matrix with a negative eigenvalue direction hit immediately:
	// -I makes pᵀAp < 0 at step 0.
	coo := sparse.NewCOO(4)
	for i := 0; i < 4; i++ {
		coo.Add(i, i, -1)
	}
	_, err := RitzFromPCG(coo.ToCSR(), nil, Options{Iterations: 5})
	if !errors.Is(err, ErrBreakdown) && err == nil {
		t.Fatalf("expected breakdown, got %v", err)
	}
}

func TestRitzDefaults(t *testing.T) {
	a := sparse.Poisson1D(50)
	est, err := RitzFromPCG(a, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Iterations == 0 || est.Iterations > 20 {
		t.Fatalf("default iterations = %d", est.Iterations)
	}
}
