package solver

import (
	"testing"

	"spcg/internal/dist"
	"spcg/internal/precond"
	"spcg/internal/sparse"
)

func TestPipelinedPCGMatchesPCG(t *testing.T) {
	// Pipelined PCG is mathematically equivalent to PCG: iteration counts
	// must agree closely on a well-conditioned problem.
	a := sparse.Poisson2D(16, 16)
	b, xTrue := testProblem(a)
	m, _ := precond.NewJacobi(a)
	_, ps, err := PCG(a, m, b, Options{Tol: 1e-9, Criterion: RecursiveResidualMNorm})
	if err != nil {
		t.Fatal(err)
	}
	x, pp, err := PipelinedPCG(a, m, b, Options{Tol: 1e-9, Criterion: RecursiveResidualMNorm})
	if err != nil {
		t.Fatal(err)
	}
	if !pp.Converged {
		t.Fatalf("did not converge: %v", pp.Breakdown)
	}
	if e := solutionError(x, xTrue); e > 1e-7 {
		t.Fatalf("solution error %v", e)
	}
	if d := pp.Iterations - ps.Iterations; d < -2 || d > 2 {
		t.Fatalf("pipelined %d iterations vs PCG %d", pp.Iterations, ps.Iterations)
	}
}

func TestPipelinedPCGCriteria(t *testing.T) {
	for _, crit := range []Criterion{TrueResidual2Norm, RecursiveResidual2Norm, RecursiveResidualMNorm} {
		a := sparse.Poisson1D(60)
		b, xTrue := testProblem(a)
		x, st, err := PipelinedPCG(a, nil, b, Options{Criterion: crit, Tol: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged {
			t.Fatalf("%v: did not converge", crit)
		}
		if e := solutionError(x, xTrue); e > 1e-6 {
			t.Fatalf("%v: error %v", crit, e)
		}
	}
}

func TestPipelinedPCGHidesCollectiveAtScale(t *testing.T) {
	// The point of pipelining: at high node counts the modeled time per
	// iteration must be lower than standard PCG's (the allreduce hides
	// behind the overlapped SpMV + preconditioner application), even though
	// pipelined PCG does MORE local work per iteration.
	a := sparse.Poisson3D(24, 24, 24)
	b, _ := testProblem(a)
	m, _ := precond.NewJacobi(a)
	machine := dist.DefaultMachine()
	cl, err := dist.NewCluster(machine, 16, a) // 2048 ranks: latency-bound PCG
	if err != nil {
		t.Fatal(err)
	}
	run := func(fn Method) float64 {
		opts := Options{Tol: 1e-7, Criterion: RecursiveResidualMNorm, Tracker: dist.NewTracker(cl)}
		_, st, err := fn(a, m, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged {
			t.Fatalf("did not converge: %v", st.Breakdown)
		}
		return st.SimTime / float64(st.Iterations)
	}
	pcgPerIter := run(PCG)
	pipePerIter := run(PipelinedPCG)
	if pipePerIter >= pcgPerIter {
		t.Fatalf("pipelined per-iteration time %.3g not below PCG %.3g at 2048 ranks", pipePerIter, pcgPerIter)
	}
}

func TestPipelinedPCGOneCollectivePerIteration(t *testing.T) {
	a := sparse.Poisson2D(20, 20)
	b, _ := testProblem(a)
	machine := dist.DefaultMachine()
	machine.RanksPerNode = 8
	cl, err := dist.NewCluster(machine, 1, a)
	if err != nil {
		t.Fatal(err)
	}
	tr := dist.NewTracker(cl)
	_, st, err := PipelinedPCG(a, nil, b, Options{Criterion: RecursiveResidualMNorm, Tracker: tr})
	if err != nil {
		t.Fatal(err)
	}
	// 1 initial γ + 1 fused (overlapped) collective per iteration.
	if st.Allreduces != 1+st.Iterations {
		t.Fatalf("allreduces = %d for %d iterations", st.Allreduces, st.Iterations)
	}
}

func TestPipelinedPCGValidation(t *testing.T) {
	a := sparse.Poisson1D(10)
	if _, _, err := PipelinedPCG(a, nil, make([]float64, 4), Options{}); err == nil {
		t.Fatal("bad b accepted")
	}
	if _, _, err := PipelinedPCG(a, nil, make([]float64, 10), Options{X0: make([]float64, 2)}); err == nil {
		t.Fatal("bad x0 accepted")
	}
}
