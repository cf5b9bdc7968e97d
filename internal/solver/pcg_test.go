package solver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spcg/internal/dist"
	"spcg/internal/fault"
	"spcg/internal/pool"
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
		if len(stats.History) != stats.Iterations+1 {
			t.Fatalf("%v: history has %d entries for %d iterations and x⁰", crit, len(stats.History), stats.Iterations)
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

// passCounter counts the passes a solve makes over the matrix, by kernel, at
// the local backend's two product entry points; it keeps the backend's fused
// basis step.
type passCounter struct {
	*local
	vecs, blocks int
}

func (p *passCounter) SpMV(dst, src []float64)      { p.vecs++; p.local.SpMV(dst, src) }
func (p *passCounter) SpMVPair(dst, src *vec.Block) { p.blocks++; p.local.SpMVPair(dst, src) }

// separate hides the local backend's optional capabilities, so the context
// computes every product on its own, one pass over the matrix each.
type separate struct{ Backend }

// passRun is one solve of the pass-counting tests and what it cost.
type passRun struct {
	x      []float64
	st     *Stats
	err    error
	faults fault.Counts
	model  dist.Counts
	passes *passCounter
}

// passFixture is the system the pass-counting tests solve.
type passFixture struct {
	a *sparse.CSR
	m precond.Interface
	b []float64
}

func newPassFixture(t *testing.T) passFixture {
	t.Helper()
	a := sparse.VarCoeff2D(24, 24, 2, 3)
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = math.Sin(float64(i)*0.37) + 0.25
	}
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	return passFixture{a, m, b}
}

// run solves with the named body on the local backend, with its optional
// capabilities (shared) or without them. Trackers and injectors carry state,
// so each run gets its own.
func (f passFixture) run(t *testing.T, method string, shared bool, opts Options, seed uint64, faults *fault.Config) passRun {
	t.Helper()
	cl, err := dist.NewCluster(dist.DefaultMachine(), 2, f.a)
	if err != nil {
		t.Fatal(err)
	}
	opts.Tracker = dist.NewTracker(cl)
	if faults != nil {
		opts.Injector = fault.New(seed, *faults)
	}
	lb, err := newLocal(f.a, f.m)
	if err != nil {
		t.Fatal(err)
	}
	passes := &passCounter{local: lb}
	var be Backend = passes
	if !shared {
		be = separate{passes}
	}
	c, err := newCtx(be, f.b, opts.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	c.attachLocal(lb)
	x, st, err := c.run(bodies[method])
	return passRun{x, st, err, opts.Injector.Counts(), opts.Tracker.Counts, passes}
}

// formedChecks counts the checks after x⁰'s that record a value within
// trueGate of tol: under the true-residual criterion, on a run whose true and
// recursive residuals agree to a factor of trueGate, exactly the checks whose
// gate was open and that formed b − A·x (a stand-in records more).
func formedChecks(st *Stats, tol float64) int {
	n := 0
	for _, rel := range st.History[1:] {
		if rel <= trueGate*tol {
			n++
		}
	}
	return n
}

// TestOnePassPerProduct: PCG and PCG3 compute every product where the
// recurrence uses it, in a pass over the matrix of its own. Whichever way a
// solve ends and under every criterion, it makes no block pass, and its
// single passes are its counted products plus the end-of-run residual's: one
// pass, or two with a nonzero x⁰.
func TestOnePassPerProduct(t *testing.T) {
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(1))
	f := newPassFixture(t)
	x0 := make([]float64, f.a.Dim())
	for i := range x0 {
		x0[i] = math.Cos(float64(i) * 0.11)
	}
	type scenario struct {
		name     string
		opts     func() Options
		faults   *fault.Config
		cancelAt int // close Options.Cancel after this many iterations
		check    func(r passRun) error
	}
	scenarios := []scenario{
		{name: "converges", opts: func() Options { return Options{Tol: 1e-9} },
			check: func(r passRun) error {
				if !r.st.Converged {
					return fmt.Errorf("did not converge: %v", r.st.Breakdown)
				}
				return nil
			}},
		{name: "nonzero x0", opts: func() Options { return Options{Tol: 1e-9, X0: x0} },
			check: func(r passRun) error {
				if !r.st.Converged || r.st.Iterations == 0 {
					return fmt.Errorf("converged=%v after %d iterations", r.st.Converged, r.st.Iterations)
				}
				return nil
			}},
		{name: "iteration cap", opts: func() Options { return Options{Tol: 1e-12, MaxIterations: 7} },
			check: func(r passRun) error {
				if r.st.Converged || r.st.Iterations != 7 {
					return fmt.Errorf("converged=%v after %d iterations", r.st.Converged, r.st.Iterations)
				}
				return nil
			}},
		{name: "cancelled mid-solve", opts: func() Options { return Options{Tol: 1e-9} }, cancelAt: 5,
			check: func(r passRun) error {
				if !errors.Is(r.err, ErrCancelled) || r.st.Iterations != 5 {
					return fmt.Errorf("err=%v after %d iterations", r.err, r.st.Iterations)
				}
				return nil
			}},
		{name: "rollbacks mid-run", faults: &fault.Config{SpMVCorruptProb: 0.03, VectorCorruptProb: 0.01},
			opts: func() Options { return Options{Tol: 1e-9, DetectEvery: 2, MaxIterations: 400} },
			check: func(r passRun) error {
				if !r.st.Converged || r.st.Rollbacks == 0 {
					return fmt.Errorf("converged=%v after %d rollbacks", r.st.Converged, r.st.Rollbacks)
				}
				return nil
			}},
		{name: "rollback budget exhausted", faults: &fault.Config{SpMVCorruptProb: 0.5},
			opts: func() Options { return Options{Tol: 1e-9, DetectEvery: 1} },
			check: func(r passRun) error {
				if r.st.Breakdown == nil || r.st.Rollbacks != maxRollbacks {
					return fmt.Errorf("breakdown=%v after %d rollbacks", r.st.Breakdown, r.st.Rollbacks)
				}
				return nil
			}},
	}
	for _, sc := range scenarios {
		for _, method := range []string{"pcg", "pcg3"} {
			for _, crit := range []Criterion{TrueResidual2Norm, RecursiveResidual2Norm, RecursiveResidualMNorm} {
				t.Run(fmt.Sprintf("%s/%s/%v", sc.name, method, crit), func(t *testing.T) {
					opts := sc.opts()
					opts.Criterion = crit
					final := 1
					if opts.X0 != nil {
						final = 2
					}
					g := f
					if sc.cancelAt > 0 {
						cancel := make(chan struct{})
						opts.Cancel = cancel
						g.m = &cancelling{Interface: f.m, applies: sc.cancelAt + 1, cancel: cancel}
					}
					r := g.run(t, method, true, opts, 40, sc.faults)
					if err := sc.check(r); err != nil {
						t.Fatal(err)
					}
					if r.passes.blocks != 0 || r.passes.vecs != r.st.MVProducts+final {
						t.Errorf("%d block passes and %d single passes for %d products", r.passes.blocks, r.passes.vecs, r.st.MVProducts)
					}
				})
			}
		}
	}
}

// cancelling closes cancel at its applies-th application. PCG and PCG3 apply
// M once before their loop and once per iteration, so applies = k + 1 stops
// them at the poll that opens iteration k + 1.
type cancelling struct {
	precond.Interface
	applies int
	cancel  chan struct{}
}

func (m *cancelling) Apply(dst, src []float64) {
	m.Interface.Apply(dst, src)
	if m.applies--; m.applies == 0 {
		close(m.cancel)
	}
}

// TestPerIterationLoopsAllocateNothing: the collectives' send buffer lives on
// the context, so a solve's allocation count does not grow with its iteration
// count (beyond the amortized growth of Stats.History).
func TestPerIterationLoopsAllocateNothing(t *testing.T) {
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(1))
	f := newPassFixture(t)
	for _, method := range []string{"pcg", "pcg3"} {
		for _, crit := range []Criterion{TrueResidual2Norm, RecursiveResidual2Norm} {
			allocs := func(iters int) float64 {
				opts := Options{Tol: 1e-300, MaxIterations: iters, Criterion: crit}
				return testing.AllocsPerRun(5, func() {
					if _, st, err := methods[method](f.a, f.m, f.b, opts); err != nil || st.Iterations != iters {
						t.Fatalf("%s: %v after %d iterations", method, err, st.Iterations)
					}
				})
			}
			short, long := allocs(10), allocs(80)
			// History doubles 16 → 32 → 64 → 128 on the way from 10 to 80 checks.
			if long-short > 4 {
				t.Errorf("%s/%v: %v allocations over 10 iterations, %v over 80", method, crit, short, long)
			}
		}
	}
}
