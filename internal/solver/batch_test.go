package solver

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"spcg/internal/pool"
	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// TestBatchPCGMatchesPCG: each column of a batch solve is a PCG run on its
// right-hand side, bit for bit — the same x and the same Stats — at every
// worker count and under every criterion. Under the true-residual criterion a
// column whose gate opens forms b − A·x on its own and pairs its next product
// with it, outside the block pass, and no column reports convergence its
// returned x does not show. The small system's columns converge and freeze
// at different iterations. The large systems (n ≥ 1<<15) put the dot products
// on the pool, where a serial kernel rounds differently once a second worker
// runs — from the first iteration on, so they are capped, not converged.
func TestBatchPCGMatchesPCG(t *testing.T) {
	ones := func(int) float64 { return 1 }
	sin := func(i int) float64 { return math.Sin(float64(i)) }
	cases := []struct {
		spec     string
		maxIters int
		rhs      []func(i int) float64
	}{
		{"poisson2d:20", 0, []func(int) float64{
			func(i int) float64 { return math.Sin(float64(i)) + 1 },
			func(i int) float64 { return math.Sin(float64(2*i)) + 1 },
			func(i int) float64 { return math.Sin(float64(3*i)) + 1 },
			func(i int) float64 { return math.Sin(float64(4*i)) + 1 },
		}},
		{"poisson2d:256", 20, []func(int) float64{ones, sin}},
		{"poisson3d:40", 20, []func(int) float64{ones, sin}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(0))
	for _, tc := range cases {
		build, n, _, err := sparse.ParseMatrixSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		a := build()
		m, err := precond.NewJacobi(a)
		if err != nil {
			t.Fatal(err)
		}
		bs := vec.NewBlock(n, len(tc.rhs))
		for j, f := range tc.rhs {
			for i := range n {
				bs.Col(j)[i] = f(i)
			}
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			pool.SetDefaultWorkers(procs)
			for _, crit := range []Criterion{TrueResidual2Norm, RecursiveResidual2Norm, RecursiveResidualMNorm} {
				opts := Options{Tol: 1e-9, MaxIterations: tc.maxIters, Criterion: crit}
				x, stats, err := BatchPCG(a, m, bs, opts)
				if err != nil {
					t.Fatal(err)
				}
				for j := range tc.rhs {
					ref, refStats, err := PCG(a, m, bs.Col(j), opts)
					if err != nil || refStats.Converged != (tc.maxIters == 0) {
						t.Fatalf("%s, %v: reference PCG column %d failed: %v", tc.spec, crit, j, err)
					}
					if !sameBits(x.Col(j), ref) {
						t.Errorf("%s, GOMAXPROCS %d, %v, column %d: x differs from PCG's", tc.spec, procs, crit, j)
					}
					if !reflect.DeepEqual(stats[j], refStats) {
						t.Errorf("%s, GOMAXPROCS %d, %v, column %d: Stats\n%+v\nPCG's\n%+v", tc.spec, procs, crit, j, stats[j], refStats)
					}
					if crit == TrueResidual2Norm && stats[j].Converged && stats[j].TrueRelResidual > opts.Tol {
						t.Errorf("%s, %v, column %d: converged with true relative residual %.3g > tol", tc.spec, crit, j, stats[j].TrueRelResidual)
					}
				}
			}
		}
	}
}

// TestBatchPCGMixedDifficulty: columns converging at different speeds freeze
// independently — an easy column must not be dragged to the hard column's
// iteration count.
func TestBatchPCGMixedDifficulty(t *testing.T) {
	a := sparse.Poisson2D(24, 24)
	m, _ := precond.NewJacobi(a)
	n := a.Dim()
	bs := vec.NewBlock(n, 2)
	for i := 0; i < n; i++ {
		bs.Col(0)[i] = 1 // smooth rhs: fast
	}
	for i := 0; i < n; i++ {
		bs.Col(1)[i] = math.Sin(float64(13 * i)) // rough rhs: slower
	}
	_, stats, err := BatchPCG(a, m, bs, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !stats[0].Converged || !stats[1].Converged {
		t.Fatalf("both columns should converge: %+v %+v", stats[0], stats[1])
	}
	if stats[0].Iterations >= stats[1].Iterations {
		t.Logf("note: smooth rhs took %d ≥ rough rhs %d iterations", stats[0].Iterations, stats[1].Iterations)
	}
	// MVProducts must reflect per-column freezing: the fast column stops
	// paying for SpMVs once converged.
	if stats[0].Iterations < stats[1].Iterations && stats[0].MVProducts >= stats[1].MVProducts {
		t.Errorf("frozen column kept charging SpMVs: %d vs %d", stats[0].MVProducts, stats[1].MVProducts)
	}
}

// TestBatchPCGZeroColumn: an all-zero rhs converges immediately with x = 0.
func TestBatchPCGZeroColumn(t *testing.T) {
	a := sparse.Poisson2D(10, 10)
	m, _ := precond.NewJacobi(a)
	n := a.Dim()
	bs := vec.NewBlock(n, 2)
	for i := 0; i < n; i++ {
		bs.Col(1)[i] = 1
	}
	x, stats, err := BatchPCG(a, m, bs, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !stats[0].Converged || stats[0].Iterations != 0 {
		t.Errorf("zero column: %+v", stats[0])
	}
	if vec.Norm2(x.Col(0)) != 0 {
		t.Error("zero rhs produced nonzero solution")
	}
	if !stats[1].Converged {
		t.Errorf("nonzero column failed: %+v", stats[1])
	}
}

// TestBatchPCGCancelled: a closed Cancel channel stops the batch with
// ErrCancelled and partial per-column stats.
func TestBatchPCGCancelled(t *testing.T) {
	a := sparse.Poisson2D(16, 16)
	m, _ := precond.NewJacobi(a)
	n := a.Dim()
	bs := vec.NewBlock(n, 3)
	for j := 0; j < 3; j++ {
		for i := 0; i < n; i++ {
			bs.Col(j)[i] = 1
		}
	}
	done := make(chan struct{})
	close(done)
	x, stats, err := BatchPCG(a, m, bs, Options{Tol: 1e-12, Cancel: done})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if x == nil || len(stats) != 3 {
		t.Fatal("cancelled batch must return partial block and stats")
	}
	for j, st := range stats {
		if st.Converged {
			t.Errorf("column %d converged with zero iterations?", j)
		}
	}
}

// TestBatchPCGDimensionErrors rejects malformed inputs up front.
func TestBatchPCGDimensionErrors(t *testing.T) {
	a := sparse.Poisson2D(8, 8)
	m, _ := precond.NewJacobi(a)
	if _, _, err := BatchPCG(a, m, vec.NewBlock(a.Dim()+1, 2), Options{}); !errors.Is(err, ErrDimension) {
		t.Errorf("row mismatch: got %v", err)
	}
	if _, _, err := BatchPCG(a, m, vec.NewBlock(a.Dim(), 0), Options{}); !errors.Is(err, ErrDimension) {
		t.Errorf("empty block: got %v", err)
	}
	if _, _, err := BatchPCG(nil, m, vec.NewBlock(4, 1), Options{}); !errors.Is(err, ErrDimension) {
		t.Errorf("nil matrix: got %v", err)
	}
}
