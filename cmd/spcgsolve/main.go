// Command spcgsolve solves a single SPD system with any of the implemented
// solvers and prints iteration/communication statistics:
//
//	spcgsolve -matrix poisson3d:32 -solver spcg -basis chebyshev -s 10
//	spcgsolve -mm matrix.mtx -solver capcg -prec chebyshev:3 -nodes 4
//
// The configuration resolves exactly as the spcgd daemon would serve it
// (tune.Candidate.Resolve): -matrix takes the daemon's matrix grammar, -prec
// its preconditioner grammar (docs/API.md). With -nodes > 0 it also reports
// the modeled distributed runtime on a virtual cluster of that many nodes.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"spcg/internal/dist"
	"spcg/internal/solver"
	"spcg/internal/sparse"
	"spcg/internal/suite"
	"spcg/internal/tune"
)

func main() {
	matrix := flag.String("matrix", "poisson3d:32", "matrix spec: generator (poisson3d:32, varcoeff2d:64:3, circuit:40, ...) or suite name")
	mmPath := flag.String("mm", "", "MatrixMarket file (overrides -matrix)")
	solverName := flag.String("solver", "spcg", "solver: pcg|pcg3|spcgmon|spcg|capcg|capcg3|adaptive")
	basisName := flag.String("basis", "chebyshev", "basis: monomial|newton|chebyshev")
	precSpec := flag.String("prec", "jacobi", "preconditioner spec: none|jacobi|chebyshev[:deg]|blockjacobi[:blocks]|ssor[:omega]|ic0")
	s := flag.Int("s", 10, "s-step block size")
	tol := flag.Float64("tol", 1e-9, "relative residual tolerance")
	maxIters := flag.Int("maxiters", 12000, "iteration cap")
	criterion := flag.String("criterion", "true2", "convergence criterion: true2 (‖b−Ax‖₂, formed where it can pass)|rec2|mnorm; rec2 and mnorm read the recursive residual and can report convergence on an x whose true residual misses tol")
	nodes := flag.Int("nodes", 0, "virtual cluster node count (0 = no cost model)")
	ranks := flag.Int("ranks", 128, "ranks per virtual node")
	flag.Parse()

	a, err := buildMatrix(*matrix, *mmPath)
	fatalIf(err)
	fmt.Printf("matrix: n=%d nnz=%d (%.1f nnz/row)\n", a.Dim(), a.NNZ(), float64(a.NNZ())/float64(a.Dim()))

	// Right-hand side with known solution x* = 1/√n (paper §5.1).
	xTrue := make([]float64, a.Dim())
	for i := range xTrue {
		xTrue[i] = 1 / math.Sqrt(float64(a.Dim()))
	}
	b := make([]float64, a.Dim())
	a.MulVecPar(b, xTrue)

	c := tune.Candidate{Method: *solverName, S: *s, Basis: *basisName, Precond: *precSpec}
	run, m, opts, err := c.Resolve(a, &tune.Setup{})
	fatalIf(err)
	opts.Tol, opts.MaxIterations = *tol, *maxIters
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

	if est := opts.Spectrum; est != nil {
		fmt.Printf("spectrum estimate of M⁻¹A: [%.4g, %.4g] from %d Ritz values\n",
			est.LambdaMin, est.LambdaMax, len(est.Ritz))
	}

	x, stats, err := run(a, m, b, opts)
	fatalIf(err)

	var errNorm float64
	for i := range x {
		d := x[i] - xTrue[i]
		errNorm += d * d
	}
	fmt.Printf("solver=%s basis=%s prec=%s s=%d\n", *solverName, opts.Basis, m.Name(), *s)
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

// suiteScale is the 1/scale at which suite names build, the spcgd default.
const suiteScale = 100

// buildMatrix reads the MatrixMarket file when one is given; otherwise spec
// is a suite name or a generator spec in sparse.ParseMatrixSpec's grammar.
func buildMatrix(spec, mmPath string) (*sparse.CSR, error) {
	if mmPath != "" {
		f, err := os.Open(mmPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return sparse.ReadMatrixMarket(f)
	}
	if p, ok := suite.ByName(spec); ok {
		return p.Build(suiteScale), nil
	}
	build, _, _, err := sparse.ParseMatrixSpec(spec)
	if err != nil {
		return nil, err
	}
	return build(), nil
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "spcgsolve:", err)
		os.Exit(1)
	}
}
