// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure (at reduced scale so `go test -bench=.` completes in minutes;
// use cmd/spcgbench for the full-scale runs) plus microbenchmarks of the
// kernels whose BLAS levels drive the paper's Table 1 analysis.
package spcg_test

import (
	"math"
	"testing"

	"spcg"
	"spcg/internal/basis"
	"spcg/internal/dist"
	"spcg/internal/experiments"
	"spcg/internal/solver"
	"spcg/internal/sparse"
	"spcg/internal/suite"
	"spcg/internal/vec"
)

func benchConfig() experiments.Config {
	m := dist.DefaultMachine()
	return experiments.Config{Scale: 128, S: 10, Machine: m}
}

// BenchmarkTable1CostModel regenerates Table 1 (cost formulas + instrumented
// validation run).
func BenchmarkTable1CostModel(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable1(cfg, 16)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.ValidateTable1(rows, cfg.S); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Stability regenerates Table 2 on a representative subset of
// the 40-matrix suite (full sweep: `spcgbench table2`).
func BenchmarkTable2Stability(b *testing.B) {
	cfg := benchConfig()
	cfg.Scale = 256
	names := []string{"thermomech_TC", "Dubcova3", "cfd2", "G2_circuit", "parabolic_fem"}
	var problems []suite.Problem
	for _, n := range names {
		p, ok := suite.ByName(n)
		if !ok {
			b.Fatal("unknown problem " + n)
		}
		problems = append(problems, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable2(cfg, problems)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(names) {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkTable3Runtime regenerates Table 3 (seven matrices, two
// preconditioners, modeled 4-node runtimes).
func BenchmarkTable3Runtime(b *testing.B) {
	cfg := benchConfig()
	cfg.Scale = 256
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable3(cfg, 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 7 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig1StrongScaling regenerates Figure 1 (strong scaling of all
// solvers over node counts; reduced grid — paper uses 256³, `spcgbench fig1
// -dim 256` reproduces it in full).
func BenchmarkFig1StrongScaling(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1(cfg, 24, 32, []int{5, 10, 15})
		if err != nil {
			b.Fatal(err)
		}
		if res.PCG1Node <= 0 {
			b.Fatal("no reference time")
		}
	}
}

// BenchmarkAblationBasis regenerates the basis-type/s ablation.
func BenchmarkAblationBasis(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Solver benchmarks: wall-clock per solve on a fixed problem. ---

func benchProblem() (*sparse.CSR, []float64, spcg.Preconditioner) {
	a := sparse.Poisson3D(24, 24, 24)
	n := a.Dim()
	xT := make([]float64, n)
	for i := range xT {
		xT[i] = 1 / math.Sqrt(float64(n))
	}
	b := make([]float64, n)
	a.MulVec(b, xT)
	m, err := spcg.NewJacobi(a)
	if err != nil {
		panic(err)
	}
	return a, b, m
}

func benchSolver(b *testing.B, run solver.Method, opts solver.Options) {
	a, rhs, m := benchProblem()
	opts.Tol = 1e-6
	opts.Criterion = solver.RecursiveResidualMNorm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := run(a, m, rhs, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !stats.Converged {
			b.Fatalf("did not converge: %+v", stats.Breakdown)
		}
	}
}

func BenchmarkSolvePCG(b *testing.B)  { benchSolver(b, solver.PCG, solver.Options{}) }
func BenchmarkSolvePCG3(b *testing.B) { benchSolver(b, solver.PCG3, solver.Options{}) }
func BenchmarkSolveSPCG(b *testing.B) {
	benchSolver(b, solver.SPCG, solver.Options{S: 10, Basis: basis.Chebyshev})
}
func BenchmarkSolveSPCGMon(b *testing.B) {
	benchSolver(b, solver.SPCGMon, solver.Options{S: 4})
}
func BenchmarkSolveCAPCG(b *testing.B) {
	benchSolver(b, solver.CAPCG, solver.Options{S: 10, Basis: basis.Chebyshev})
}
func BenchmarkSolveCAPCG3(b *testing.B) {
	benchSolver(b, solver.CAPCG3, solver.Options{S: 10, Basis: basis.Chebyshev})
}

// --- Kernel microbenchmarks (the BLAS1 vs BLAS3 story of Table 1). ---

func BenchmarkKernelSpMV(b *testing.B) {
	a := sparse.Poisson3D(32, 32, 32)
	x := make([]float64, a.Dim())
	y := make([]float64, a.Dim())
	vec.Fill(x, 1)
	b.SetBytes(int64(12*a.NNZ() + 16*a.Dim()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(y, x)
	}
}

func BenchmarkKernelSpMVParallel(b *testing.B) {
	a := sparse.Poisson3D(32, 32, 32)
	x := make([]float64, a.Dim())
	y := make([]float64, a.Dim())
	vec.Fill(x, 1)
	b.SetBytes(int64(12*a.NNZ() + 16*a.Dim()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVecPar(y, x)
	}
}

func BenchmarkKernelDot(b *testing.B) {
	n := 1 << 18
	x := make([]float64, n)
	y := make([]float64, n)
	vec.Fill(x, 1)
	vec.Fill(y, 2)
	b.SetBytes(int64(16 * n))
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += vec.Dot(x, y)
	}
	_ = sink
}

func BenchmarkKernelAxpy(b *testing.B) {
	n := 1 << 18
	x := make([]float64, n)
	y := make([]float64, n)
	vec.Fill(x, 1)
	b.SetBytes(int64(24 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.Axpy(0.5, x, y)
	}
}

// BenchmarkKernelBlockAddMul measures the BLAS3-style P = U + P·B update
// that gives sPCG its local-computation advantage (paper §4.1).
func BenchmarkKernelBlockAddMul(b *testing.B) {
	n, s := 1<<16, 10
	u := vec.NewBlock(n, s)
	p := vec.NewBlock(n, s)
	dst := vec.NewBlock(n, s)
	coef := make([]float64, s*s)
	for i := range coef {
		coef[i] = 0.01
	}
	b.SetBytes(int64(8 * n * 3 * s))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.AddMul(dst, u, p, coef)
	}
}

// BenchmarkKernelGram measures the fused local reduction UᵀS feeding the
// single global collective of the s-step methods.
func BenchmarkKernelGram(b *testing.B) {
	n, s := 1<<16, 10
	u := vec.NewBlock(n, s)
	sblk := vec.NewBlock(n, s+1)
	b.SetBytes(int64(8 * n * (2*s + 1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vec.Gram(u, sblk)
	}
}
