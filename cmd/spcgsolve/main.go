// Command spcgsolve solves a single SPD system with any of the implemented
// solvers and prints iteration/communication statistics:
//
//	spcgsolve -gen poisson3d -n 32 -solver spcg -basis chebyshev -s 10
//	spcgsolve -mm matrix.mtx -solver capcg -prec chebyshev -nodes 4
//
// With -nodes > 0 it also reports the modeled distributed runtime on a
// virtual cluster of that many nodes.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"spcg/internal/basis"
	"spcg/internal/dist"
	"spcg/internal/eig"
	"spcg/internal/precond"
	"spcg/internal/solver"
	"spcg/internal/sparse"
)

func main() {
	gen := flag.String("gen", "poisson3d", "problem generator: poisson1d|poisson2d|poisson3d|varcoeff2d|varcoeff3d|circuit")
	n := flag.Int("n", 32, "grid dimension per axis (generators)")
	contrast := flag.Float64("contrast", 3, "coefficient contrast (varcoeff generators)")
	mmPath := flag.String("mm", "", "MatrixMarket file (overrides -gen)")
	solverName := flag.String("solver", "spcg", "solver: pcg|pcg3|spcgmon|spcg|capcg|capcg3|adaptive")
	basisName := flag.String("basis", "chebyshev", "basis: monomial|newton|chebyshev")
	precName := flag.String("prec", "jacobi", "preconditioner: none|jacobi|chebyshev|blockjacobi|ssor|ic0")
	precDegree := flag.Int("degree", 3, "Chebyshev preconditioner degree")
	s := flag.Int("s", 10, "s-step block size")
	tol := flag.Float64("tol", 1e-9, "relative residual tolerance")
	maxIters := flag.Int("maxiters", 12000, "iteration cap")
	criterion := flag.String("criterion", "mnorm", "convergence criterion: true2|rec2|mnorm")
	nodes := flag.Int("nodes", 0, "virtual cluster node count (0 = no cost model)")
	ranks := flag.Int("ranks", 128, "ranks per virtual node")
	rr := flag.Bool("rr", false, "enable residual replacement (s-step methods)")
	flag.Parse()

	a, err := buildMatrix(*gen, *n, *contrast, *mmPath)
	fatalIf(err)
	fmt.Printf("matrix: n=%d nnz=%d (%.1f nnz/row)\n", a.Dim(), a.NNZ(), float64(a.NNZ())/float64(a.Dim()))

	// Right-hand side with known solution x* = 1/√n (paper §5.1).
	xTrue := make([]float64, a.Dim())
	for i := range xTrue {
		xTrue[i] = 1 / math.Sqrt(float64(a.Dim()))
	}
	b := make([]float64, a.Dim())
	a.MulVecPar(b, xTrue)

	m, err := buildPrec(a, *precName, *precDegree)
	fatalIf(err)

	bt, err := basis.ParseType(*basisName)
	fatalIf(err)

	opts := solver.Options{
		S: *s, Basis: bt, Tol: *tol, MaxIterations: *maxIters,
		ResidualReplacement: *rr,
	}
	switch *criterion {
	case "true2":
		opts.Criterion = solver.TrueResidual2Norm
	case "rec2":
		opts.Criterion = solver.RecursiveResidual2Norm
	case "mnorm":
		opts.Criterion = solver.RecursiveResidualMNorm
	default:
		fatalIf(fmt.Errorf("unknown criterion %q", *criterion))
	}

	if *nodes > 0 {
		machine := dist.DefaultMachine()
		machine.RanksPerNode = *ranks
		cl, err := dist.NewCluster(machine, *nodes, a)
		fatalIf(err)
		opts.Tracker = dist.NewTracker(cl)
	}

	if bt != basis.Monomial {
		est, err := eig.RitzFromPCG(a, m.Apply, eig.Options{Iterations: 2 * *s})
		fatalIf(err)
		opts.Spectrum = est
		fmt.Printf("spectrum estimate of M⁻¹A: [%.4g, %.4g] from %d Ritz values\n",
			est.LambdaMin, est.LambdaMax, len(est.Ritz))
	}

	run := map[string]solver.Method{
		"pcg": solver.PCG, "pcg3": solver.PCG3, "spcgmon": solver.SPCGMon,
		"spcg": solver.SPCG, "capcg": solver.CAPCG, "capcg3": solver.CAPCG3,
		"adaptive": solver.SPCGAdaptive,
	}[*solverName]
	if run == nil {
		fatalIf(fmt.Errorf("unknown solver %q", *solverName))
	}

	x, stats, err := run(a, m, b, opts)
	fatalIf(err)

	var errNorm float64
	for i := range x {
		d := x[i] - xTrue[i]
		errNorm += d * d
	}
	fmt.Printf("solver=%s basis=%s prec=%s s=%d\n", *solverName, bt, m.Name(), *s)
	fmt.Printf("converged=%v iterations=%d outer=%d\n", stats.Converged, stats.Iterations, stats.OuterIterations)
	fmt.Printf("true relative residual=%.3e solution error=%.3e\n", stats.TrueRelResidual, math.Sqrt(errNorm))
	fmt.Printf("MV products=%d prec applies=%d collectives=%d (payload %d values)\n",
		stats.MVProducts, stats.PrecApplies, stats.Allreduces, stats.AllreduceValues)
	if stats.Breakdown != nil {
		fmt.Printf("breakdown: %v\n", stats.Breakdown)
	}
	if stats.SimTime > 0 {
		fmt.Printf("modeled runtime on %d node(s) × %d ranks: %.6fs\n", *nodes, *ranks, stats.SimTime)
	}
	if !stats.Converged {
		os.Exit(1)
	}
}

func buildMatrix(gen string, n int, contrast float64, mmPath string) (*sparse.CSR, error) {
	if mmPath != "" {
		f, err := os.Open(mmPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return sparse.ReadMatrixMarket(f)
	}
	switch gen {
	case "poisson1d":
		return sparse.Poisson1D(n * n), nil
	case "poisson2d":
		return sparse.Poisson2D(n, n), nil
	case "poisson3d":
		return sparse.Poisson3D(n, n, n), nil
	case "varcoeff2d":
		return sparse.VarCoeff2D(n, n, contrast, 1), nil
	case "varcoeff3d":
		return sparse.VarCoeff3D(n, n, n, contrast, 1), nil
	case "circuit":
		return sparse.CircuitLaplacian(n, n, n*n/20, 1e-3, 1), nil
	default:
		return nil, fmt.Errorf("unknown generator %q", gen)
	}
}

func buildPrec(a *sparse.CSR, name string, degree int) (precond.Interface, error) {
	switch name {
	case "none", "":
		return precond.NewIdentity(a.Dim()), nil
	case "jacobi":
		return precond.NewJacobi(a)
	case "chebyshev":
		est, err := eig.RitzFromPCG(a, nil, eig.Options{Iterations: 20})
		if err != nil {
			return nil, err
		}
		return precond.NewChebyshev(a, degree, est.LambdaMin, est.LambdaMax)
	case "blockjacobi":
		blocks := a.Dim()/512 + 1
		return precond.NewBlockJacobi(a, blocks)
	case "ssor":
		return precond.NewSSOR(a, 1.2)
	case "ic0":
		return precond.NewIC0(a)
	default:
		return nil, fmt.Errorf("unknown preconditioner %q", name)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "spcgsolve:", err)
		os.Exit(1)
	}
}
