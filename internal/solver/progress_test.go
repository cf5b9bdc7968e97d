package solver

import (
	"math"
	"testing"

	"spcg/internal/basis"
	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

type beat struct {
	iter int
	rel  float64
}

func TestPCGProgressHeartbeat(t *testing.T) {
	a := sparse.Poisson2D(20, 20)
	b, _ := testProblem(a)
	m, _ := precond.NewJacobi(a)
	var beats []beat
	_, st, err := PCG(a, m, b, Options{
		Tol: 1e-8, Criterion: RecursiveResidualMNorm,
		OnProgress: func(it int, rel float64) { beats = append(beats, beat{it, rel}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("did not converge")
	}
	if len(beats) == 0 {
		t.Fatal("no heartbeats fired")
	}
	if st.Heartbeats != len(beats) {
		t.Fatalf("Stats.Heartbeats = %d, hook fired %d times", st.Heartbeats, len(beats))
	}
	// Iterations reported to the hook are monotone nondecreasing and the
	// final beat matches the final stats.
	for i := 1; i < len(beats); i++ {
		if beats[i].iter < beats[i-1].iter {
			t.Fatalf("iteration stream not monotone: %v then %v", beats[i-1], beats[i])
		}
	}
	last := beats[len(beats)-1]
	if last.iter != st.Iterations || last.rel != st.FinalRelative {
		t.Fatalf("final beat %+v != stats (%d, %v)", last, st.Iterations, st.FinalRelative)
	}
	if st.BestRelative > st.FinalRelative {
		t.Fatalf("BestRelative %v > FinalRelative %v", st.BestRelative, st.FinalRelative)
	}
	if math.IsInf(st.BestRelative, 1) {
		t.Fatal("BestRelative never updated")
	}
}

func TestSPCGProgressHeartbeat(t *testing.T) {
	a := sparse.Poisson2D(20, 20)
	b, _ := testProblem(a)
	m, _ := precond.NewJacobi(a)
	var beats []beat
	_, st, err := SPCG(a, m, b, Options{
		S: 5, Basis: basis.Chebyshev, Tol: 1e-8, Criterion: RecursiveResidualMNorm,
		OnProgress: func(it int, rel float64) { beats = append(beats, beat{it, rel}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || len(beats) == 0 {
		t.Fatalf("converged=%v beats=%d", st.Converged, len(beats))
	}
	if st.Heartbeats != len(beats) {
		t.Fatalf("Heartbeats = %d, hook fired %d times", st.Heartbeats, len(beats))
	}
}

// TestAdaptiveHeartbeatAcrossCascade is the regression test for carrying the
// stagnation/heartbeat fields across SPCGAdaptive's phases: the degenerate
// basis forces the full 4 → 2 → 1 cascade, and the external observer must see
// one monotone iteration stream with cascade-wide aggregates.
func TestAdaptiveHeartbeatAcrossCascade(t *testing.T) {
	a := sparse.Poisson2D(16, 16)
	b, _ := testProblem(a)
	m, _ := precond.NewJacobi(a)
	var beats []beat
	_, st, err := SPCGAdaptive(a, m, b, Options{
		S: 4, BasisParams: degenerateNewtonParams(4), Tol: 1e-9,
		Criterion:  RecursiveResidualMNorm,
		OnProgress: func(it int, rel float64) { beats = append(beats, beat{it, rel}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("cascade did not converge: %+v", st.Breakdown)
	}
	if st.Restarts != 2 {
		t.Fatalf("Restarts = %d, want 2 (4→2→1)", st.Restarts)
	}
	if len(beats) == 0 {
		t.Fatal("no heartbeats across the cascade")
	}
	if st.Heartbeats != len(beats) {
		t.Fatalf("aggregate Heartbeats = %d, hook fired %d times", st.Heartbeats, len(beats))
	}
	// The rebased iteration stream must never restart from zero at a phase
	// boundary: each beat's count is >= its predecessor's.
	for i := 1; i < len(beats); i++ {
		if beats[i].iter < beats[i-1].iter {
			t.Fatalf("cascade iteration stream went backwards at beat %d: %v then %v",
				i, beats[i-1], beats[i])
		}
	}
	// BestRelative is the minimum over every beat of every phase.
	min := math.Inf(1)
	for _, bt := range beats {
		if bt.rel < min {
			min = bt.rel
		}
	}
	if st.BestRelative != min {
		t.Fatalf("BestRelative = %v, min over beats = %v", st.BestRelative, min)
	}
}

// TestAdaptiveIsOneRun: where the monomial basis at s = 12 breaks down and the
// cascade halves s, the phases are one run. The criterion is measured against
// the first phase's initial value throughout, so Stats.TrueRelResidual is
// ‖b−Ax‖/‖b‖ of the returned x, FinalRelative is that same quantity at the
// last check, and History restarts at 1 nowhere but at x⁰; the iteration
// count and the heartbeat stream are monotone across the phases. The cap
// bounds poisson2d:128, whose s = 6 phase stagnates near 1.8e-8 without
// breaking down and would spend any cap.
func TestAdaptiveIsOneRun(t *testing.T) {
	for _, spec := range []string{"poisson2d:64", "poisson2d:128", "poisson3d:24"} {
		build, n, err := sparse.ParseMatrixSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		a := build()
		m, err := precond.NewJacobi(a)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = 1
		}
		var beats []beat
		x, st, err := SPCGAdaptive(a, m, b, Options{
			S: 12, Basis: basis.Monomial, Tol: 1e-9, MaxIterations: 2000,
			OnProgress: func(it int, rel float64) { beats = append(beats, beat{it, rel}) },
		})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if st.Restarts == 0 {
			t.Fatalf("%s: no s reduction; the case must restart", spec)
		}
		ax := make([]float64, n)
		a.MulVec(ax, x)
		var res, nb float64
		for i := range b {
			res += (b[i] - ax[i]) * (b[i] - ax[i])
			nb += b[i] * b[i]
		}
		want := math.Sqrt(res) / math.Sqrt(nb)
		t.Logf("%s: restarts %d, iterations %d, converged %v, TrueRelResidual %.3g, ‖b−Ax‖/‖b‖ %.3g, FinalRelative %.3g",
			spec, st.Restarts, st.Iterations, st.Converged, st.TrueRelResidual, want, st.FinalRelative)
		if math.Abs(st.TrueRelResidual-want) > 1e-12*want {
			t.Errorf("%s: TrueRelResidual %v, ‖b−Ax‖/‖b‖ %v", spec, st.TrueRelResidual, want)
		}
		if math.Abs(st.FinalRelative-want) > 1e-9*want {
			t.Errorf("%s: FinalRelative %v, ‖b−Ax‖/‖b‖ %v", spec, st.FinalRelative, want)
		}
		h := st.History
		if len(h) != len(beats) || len(h) != st.Heartbeats || h[0] != 1 || h[len(h)-1] != st.FinalRelative {
			t.Fatalf("%s: History %d entries from 1 = %v to %v, %d beats, %d heartbeats, FinalRelative %v",
				spec, len(h), h[0], h[len(h)-1], len(beats), st.Heartbeats, st.FinalRelative)
		}
		for i := 1; i < len(h); i++ {
			if h[i] == 1 {
				t.Errorf("%s: History restarts at 1 at check %d", spec, i)
			}
			if beats[i].iter < beats[i-1].iter || beats[i].rel != h[i] {
				t.Errorf("%s: beat %d %+v after %+v, History %v", spec, i, beats[i], beats[i-1], h[i])
			}
		}
		if beats[len(beats)-1].iter != st.Iterations {
			t.Errorf("%s: last beat at iteration %d, Stats.Iterations %d", spec, beats[len(beats)-1].iter, st.Iterations)
		}
	}
}

func TestBatchPCGProgressHeartbeat(t *testing.T) {
	a := sparse.Poisson2D(16, 16)
	n := a.Dim()
	k := 3
	bs := vec.NewBlock(n, k)
	for j := 0; j < k; j++ {
		col := bs.Col(j)
		for i := range col {
			col[i] = float64((i+j)%7) - 3
		}
	}
	m, _ := precond.NewJacobi(a)
	var beats []beat
	_, stats, err := BatchPCG(a, m, bs, Options{
		Tol: 1e-9, Criterion: RecursiveResidualMNorm,
		OnProgress: func(it int, rel float64) { beats = append(beats, beat{it, rel}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(beats) == 0 {
		t.Fatal("no block heartbeats")
	}
	for i := 1; i < len(beats); i++ {
		if beats[i].iter != beats[i-1].iter+1 {
			t.Fatalf("block heartbeat skipped: %v then %v", beats[i-1], beats[i])
		}
	}
	for j, st := range stats {
		if !st.Converged {
			t.Fatalf("column %d did not converge", j)
		}
		if st.Heartbeats == 0 || math.IsInf(st.BestRelative, 1) {
			t.Fatalf("column %d heartbeat fields not tracked: %+v", j, st)
		}
		if st.BestRelative > st.FinalRelative {
			t.Fatalf("column %d BestRelative %v > FinalRelative %v", j, st.BestRelative, st.FinalRelative)
		}
	}
}
