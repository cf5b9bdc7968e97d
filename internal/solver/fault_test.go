package solver

import (
	"errors"
	"math/rand"
	"testing"

	"spcg/internal/fault"
	"spcg/internal/precond"
	"spcg/internal/sparse"
)

func faultTestSystem(t *testing.T, seed int64) (*sparse.CSR, precond.Interface, []float64) {
	t.Helper()
	a := sparse.Poisson2D(20, 20)
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return a, m, b
}

func TestPCGSoftErrorsDetectedAndRecovered(t *testing.T) {
	a, m, b := faultTestSystem(t, 1)
	tol := 1e-8
	base := Options{Tol: tol, Criterion: RecursiveResidualMNorm}

	// Unprotected run under silent SpMV corruption: the recursive residual
	// keeps shrinking while x drifts — the classic silent-data-corruption
	// failure, visible only in the true residual.
	unprot := base
	unprot.Injector = fault.New(42, fault.Config{SpMVCorruptProb: 0.05})
	_, unprotStats, err := PCG(a, m, b, unprot)
	if err != nil {
		t.Fatal(err)
	}
	if unprot.Injector.Counts().Total() == 0 {
		t.Fatal("seed injected no corruptions; test is vacuous")
	}
	if unprotStats.TrueRelResidual <= tol {
		t.Fatalf("unprotected run reached true accuracy %v despite corruption — increase the rate", unprotStats.TrueRelResidual)
	}

	// Protected run with the same fault stream: detection + rollback must
	// recover true convergence.
	prot := base
	prot.Injector = fault.New(42, fault.Config{SpMVCorruptProb: 0.05})
	prot.DetectEvery = 1
	_, protStats, err := PCG(a, m, b, prot)
	if err != nil {
		t.Fatal(err)
	}
	if !protStats.Converged || protStats.TrueRelResidual > 10*tol {
		t.Fatalf("protected run failed: converged=%v trueRel=%v", protStats.Converged, protStats.TrueRelResidual)
	}
	if protStats.DetectedFaults == 0 || protStats.Rollbacks == 0 {
		t.Fatalf("protection never fired: detected=%d rollbacks=%d", protStats.DetectedFaults, protStats.Rollbacks)
	}
}

func TestSPCGSoftErrorsDetectedAndRecovered(t *testing.T) {
	a, m, b := faultTestSystem(t, 2)
	tol := 1e-8
	base := Options{S: 4, Tol: tol, Criterion: RecursiveResidualMNorm}

	unprot := base
	unprot.Injector = fault.New(7, fault.Config{SpMVCorruptProb: 0.02})
	_, unprotStats, err := SPCG(a, m, b, unprot)
	if err != nil {
		t.Fatal(err)
	}
	if unprotStats.TrueRelResidual <= tol && unprotStats.Breakdown == nil {
		t.Fatalf("unprotected sPCG unaffected by corruption (trueRel=%v)", unprotStats.TrueRelResidual)
	}

	prot := base
	prot.Injector = fault.New(7, fault.Config{SpMVCorruptProb: 0.02})
	prot.DetectEvery = 1 // probe every outer iteration (every s steps)
	_, protStats, err := SPCG(a, m, b, prot)
	if err != nil {
		t.Fatal(err)
	}
	if !protStats.Converged || protStats.TrueRelResidual > 10*tol {
		t.Fatalf("protected sPCG failed: converged=%v trueRel=%v breakdown=%v",
			protStats.Converged, protStats.TrueRelResidual, protStats.Breakdown)
	}
	if protStats.DetectedFaults == 0 || protStats.Rollbacks == 0 {
		t.Fatalf("protection never fired: detected=%d rollbacks=%d", protStats.DetectedFaults, protStats.Rollbacks)
	}
}

func TestDetectionWithoutFaultsIsTransparent(t *testing.T) {
	// Detection enabled on a clean run: zero false positives and bit-identical
	// iterates (probes read but never write solver state).
	a, m, b := faultTestSystem(t, 3)
	opts := Options{Tol: 1e-9, Criterion: RecursiveResidualMNorm}
	xPlain, sPlain, err := PCG(a, m, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.DetectEvery = 5
	xGuard, sGuard, err := PCG(a, m, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sGuard.DetectedFaults != 0 || sGuard.Rollbacks != 0 {
		t.Fatalf("false positives on a clean run: detected=%d rollbacks=%d", sGuard.DetectedFaults, sGuard.Rollbacks)
	}
	if sGuard.Iterations != sPlain.Iterations {
		t.Fatalf("detection changed iteration count: %d vs %d", sGuard.Iterations, sPlain.Iterations)
	}
	for i := range xPlain {
		if xPlain[i] != xGuard[i] {
			t.Fatalf("detection changed iterates at %d: %v vs %v", i, xPlain[i], xGuard[i])
		}
	}
}

func TestNilInjectorZeroOptionsBitIdentical(t *testing.T) {
	// The whole fault subsystem disabled must be a strict no-op: same x, same
	// stats, zero fault counters.
	a, m, b := faultTestSystem(t, 4)
	x1, s1, err := PCG(a, m, b, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	x2, s2, err := PCG(a, m, b, Options{Tol: 1e-9, Injector: nil, DetectEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("iterates differ at %d", i)
		}
	}
	if s1.Iterations != s2.Iterations || s1.FinalRelative != s2.FinalRelative || s1.Allreduces != s2.Allreduces {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
	if s1.DetectedFaults != 0 || s1.Rollbacks != 0 {
		t.Fatalf("fault counters nonzero on clean run: %+v", s1)
	}
}

func TestRollbackBudgetExhaustionIsBreakdown(t *testing.T) {
	// Persistent corruption (every SpMV) can never pass a probe: recovery
	// must give up after maxRollbacks and report a breakdown, not loop — on
	// every method.
	a, m, b := faultTestSystem(t, 6)
	for _, method := range detectedMethods {
		opts := Options{
			S:           4,
			Tol:         1e-9,
			Injector:    fault.New(1, fault.Config{SpMVCorruptProb: 1}),
			DetectEvery: 1,
		}
		_, stats, err := methods[method](a, m, b, opts)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		var be *BreakdownError
		if !errors.As(stats.Breakdown, &be) || be.Site != siteRollback {
			t.Errorf("%s: breakdown %v, want site %s", method, stats.Breakdown, siteRollback)
		}
		if stats.Rollbacks != maxRollbacks {
			t.Errorf("%s: Rollbacks = %d, want %d", method, stats.Rollbacks, maxRollbacks)
		}
		if stats.Converged {
			t.Errorf("%s: persistently corrupted run reported converged", method)
		}
	}
}

// detectedMethods are the methods the detection tests run: the per-iteration
// pair and the three s-step families.
var detectedMethods = []string{"pcg", "pcg3", "spcg", "capcg", "capcg3"}

// TestDetectionOnEveryMethod: under silent SpMV corruption every method with
// detection on rolls back whenever it drew a fault and reaches the true
// accuracy, where without detection PCG3, CA-PCG and CA-PCG3 stop short of
// it. A fault in a basis product usually shows as a breakdown in the same
// block, which rolls back before any probe could see it; one that reaches
// (x, r) is the probe's, and each method's probe flags some over the seeds.
func TestDetectionOnEveryMethod(t *testing.T) {
	a, m, b := faultTestSystem(t, 1)
	const tol = 1e-8
	for _, method := range detectedMethods {
		detected := 0
		for _, seed := range []uint64{7, 42} {
			opts := Options{
				S: 4, Tol: tol, Criterion: RecursiveResidualMNorm, DetectEvery: 1,
				Injector: fault.New(seed, fault.Config{SpMVCorruptProb: 0.05}),
			}
			_, st, err := methods[method](a, m, b, opts)
			if err != nil {
				t.Fatalf("%s/seed %d: %v", method, seed, err)
			}
			if !st.Converged || st.TrueRelResidual > 10*tol {
				t.Errorf("%s/seed %d: converged=%v trueRel=%.2e breakdown=%v", method, seed, st.Converged, st.TrueRelResidual, st.Breakdown)
			}
			if opts.Injector.Counts().Total() > 0 && st.Rollbacks == 0 {
				t.Errorf("%s/seed %d: %d corruptions injected, no rollback", method, seed, opts.Injector.Counts().Total())
			}
			detected += st.DetectedFaults
		}
		if detected == 0 {
			t.Errorf("%s: no probe flagged a fault on either seed", method)
		}
	}
}

func TestAdaptiveCascadeCarriesProtection(t *testing.T) {
	// SPCGAdaptive forwards Options to its SPCG/PCG stages, so detection and
	// recovery protect the whole cascade.
	a, m, b := faultTestSystem(t, 8)
	tol := 1e-8
	opts := Options{
		S:           6,
		Tol:         tol,
		Criterion:   RecursiveResidualMNorm,
		Injector:    fault.New(21, fault.Config{SpMVCorruptProb: 0.015}),
		DetectEvery: 1,
	}
	_, stats, err := SPCGAdaptive(a, m, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged || stats.TrueRelResidual > 10*tol {
		t.Fatalf("protected cascade failed: converged=%v trueRel=%v", stats.Converged, stats.TrueRelResidual)
	}
	if opts.Injector.Counts().Total() > 0 && stats.DetectedFaults == 0 {
		t.Fatal("corruptions injected but never detected")
	}
}
