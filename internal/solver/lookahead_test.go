package solver

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"spcg/internal/dist"
	"spcg/internal/fault"
	"spcg/internal/pool"
	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// passCounter counts the passes a solve makes over the matrix, by kernel.
type passCounter struct {
	*sparse.CSR
	vecs, blocks int
}

func (m *passCounter) MulVecPar(dst, x []float64)    { m.vecs++; m.CSR.MulVecPar(dst, x) }
func (m *passCounter) MulBlockPar(dst, x *vec.Block) { m.blocks++; m.CSR.MulBlockPar(dst, x) }

// separate hides the local backend's optional capabilities, so the context
// computes every product on its own where the recurrence consumes it — the
// run the look-ahead must be indistinguishable from.
type separate struct{ Backend }

// lookaheadRun is one solve of the look-ahead tests and what it cost.
type lookaheadRun struct {
	x      []float64
	st     *Stats
	err    error
	faults fault.Counts
	model  dist.Counts
	passes *passCounter
}

// lookaheadFixture is the system the look-ahead tests solve; mkOpts builds
// the options of one run (trackers and injectors carry state, so each run
// gets its own).
type lookaheadFixture struct {
	a *sparse.CSR
	m precond.Interface
	b []float64
}

func newLookaheadFixture(t *testing.T) lookaheadFixture {
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
	return lookaheadFixture{a, m, b}
}

// run solves with the named body, with the paired product or without it.
func (f lookaheadFixture) run(t *testing.T, method string, paired bool, opts Options, seed uint64, faults *fault.Config) lookaheadRun {
	t.Helper()
	cl, err := dist.NewCluster(dist.DefaultMachine(), 2, f.a)
	if err != nil {
		t.Fatal(err)
	}
	opts.Tracker = dist.NewTracker(cl)
	if faults != nil {
		opts.Injector = fault.New(seed, *faults)
	}
	passes := &passCounter{CSR: f.a}
	lb, err := newLocal(passes, f.m)
	if err != nil {
		t.Fatal(err)
	}
	var be Backend = lb
	if !paired {
		be = separate{lb}
	}
	c, err := newCtx(be, f.b, opts.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	c.attachLocal(lb)
	x, st, err := c.run(bodies[method])
	return lookaheadRun{x, st, err, opts.Injector.Counts(), opts.Tracker.Counts, passes}
}

// discarded is how many products the run computed and never charged: the
// passes over the matrix (a block pass yields two products) less the charged
// ones and the end-of-run residual's, which sits outside the counts.
func (r lookaheadRun) discarded(x0 bool) int {
	final := 1
	if x0 {
		final = 2
	}
	return r.passes.vecs + 2*r.passes.blocks - r.st.MVProducts - final
}

// TestLookaheadIndistinguishable: a product is counted where the recurrence
// consumes it, and the one discarded at exit is not one. So whichever way a
// solve ends — convergence, the iteration cap, cancellation, a breakdown
// budget — and whatever the injector and the rollbacks do in between, the
// iterate, every event count, the modeled time and the fault sequence equal
// those of a run that computes the two products separately.
func TestLookaheadIndistinguishable(t *testing.T) {
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(1))
	f := newLookaheadFixture(t)
	x0 := make([]float64, f.a.Dim())
	for i := range x0 {
		x0[i] = math.Cos(float64(i) * 0.11)
	}
	soft := &fault.Config{SpMVCorruptProb: 0.03, VectorCorruptProb: 0.01}

	type scenario struct {
		name   string
		opts   func() Options
		faults *fault.Config
		check  func(t *testing.T, method string, r lookaheadRun)
	}
	scenarios := []scenario{
		{name: "converges", opts: func() Options { return Options{Tol: 1e-9} },
			check: func(t *testing.T, method string, r lookaheadRun) {
				if !r.st.Converged || r.discarded(false) != 1 {
					t.Errorf("converged=%v, %d products discarded, want exactly the one at exit", r.st.Converged, r.discarded(false))
				}
				// One pass over the matrix per iteration, plus r⁰, the first
				// iteration's product and the end-of-run residual.
				if r.passes.blocks != r.st.Iterations || r.passes.vecs != 3 {
					t.Errorf("%d block passes and %d single passes over %d iterations", r.passes.blocks, r.passes.vecs, r.st.Iterations)
				}
			}},
		{name: "nonzero x0", opts: func() Options { return Options{Tol: 1e-9, X0: x0} },
			check: func(t *testing.T, method string, r lookaheadRun) {
				if !r.st.Converged || r.discarded(true) != 1 {
					t.Errorf("converged=%v, %d products discarded", r.st.Converged, r.discarded(true))
				}
			}},
		{name: "iteration cap", opts: func() Options { return Options{Tol: 1e-12, MaxIterations: 7} },
			check: func(t *testing.T, method string, r lookaheadRun) {
				if r.st.Converged || r.st.Iterations != 7 || r.discarded(false) != 1 {
					t.Errorf("converged=%v after %d iterations, %d products discarded", r.st.Converged, r.st.Iterations, r.discarded(false))
				}
			}},
		{name: "cancelled mid-solve", opts: func() Options {
			cancel := make(chan struct{})
			return Options{Tol: 1e-12, Cancel: cancel, OnProgress: func(it int, _ float64) {
				if it == 5 {
					close(cancel)
				}
			}}
		},
			check: func(t *testing.T, method string, r lookaheadRun) {
				if !errors.Is(r.err, ErrCancelled) || r.st.Iterations != 5 || r.discarded(false) != 1 {
					t.Errorf("err=%v after %d iterations, %d products discarded", r.err, r.st.Iterations, r.discarded(false))
				}
			}},
		{name: "rollback between the pass and its consumption", faults: soft,
			opts: func() Options { return Options{Tol: 1e-9, DetectEvery: 2, MaxIterations: 400} },
			check: func(t *testing.T, method string, r lookaheadRun) {
				if method != "pcg" {
					return // pcg3 has no detection probe
				}
				// Every probe runs under an offer, so each detected fault is a
				// rollback that lands on a product already computed.
				if r.st.DetectedFaults == 0 || r.st.Rollbacks < r.st.DetectedFaults {
					t.Fatalf("%d faults detected, %d rollbacks: the scenario never happened", r.st.DetectedFaults, r.st.Rollbacks)
				}
				if got, want := r.discarded(false), r.st.DetectedFaults+1; !r.st.Converged || got != want {
					t.Errorf("converged=%v, %d products discarded, want %d (one per detected fault and the one at exit)", r.st.Converged, got, want)
				}
			}},
		{name: "rollback budget exhausted", faults: &fault.Config{SpMVCorruptProb: 0.5},
			opts: func() Options { return Options{Tol: 1e-9, DetectEvery: 1, MaxRollbacks: 3} },
			check: func(t *testing.T, method string, r lookaheadRun) {
				if method == "pcg" && (r.st.Breakdown == nil || r.st.Rollbacks != 3) {
					t.Errorf("breakdown=%v after %d rollbacks", r.st.Breakdown, r.st.Rollbacks)
				}
			}},
	}
	for _, sc := range scenarios {
		for _, method := range []string{"pcg", "pcg3"} {
			t.Run(sc.name+"/"+method, func(t *testing.T) {
				for seed := uint64(40); seed < 44; seed++ {
					got := f.run(t, method, true, sc.opts(), seed, sc.faults)
					want := f.run(t, method, false, sc.opts(), seed, sc.faults)
					if want.passes.blocks != 0 {
						t.Fatal("the reference run made a paired pass")
					}
					if (got.err == nil) != (want.err == nil) || !sameBits(got.x, want.x) {
						t.Fatalf("seed %d: iterates differ (err %v vs %v)", seed, got.err, want.err)
					}
					got.st.Phases, want.st.Phases = nil, nil
					if !reflect.DeepEqual(got.st, want.st) {
						t.Fatalf("seed %d: stats differ:\n paired   %+v\n separate %+v", seed, got.st, want.st)
					}
					if math.Float64bits(got.st.SimTime) != math.Float64bits(want.st.SimTime) {
						t.Fatalf("seed %d: SimTime %v vs %v", seed, got.st.SimTime, want.st.SimTime)
					}
					if got.faults != want.faults || got.model != want.model {
						t.Fatalf("seed %d: fault counts %+v vs %+v, model counts %+v vs %+v", seed, got.faults, want.faults, got.model, want.model)
					}
					sc.check(t, method, got)
					if sc.faults == nil {
						break // nothing drawn: one seed is every seed
					}
				}
			})
		}
	}
}

// TestLookaheadOnlyWithAnExplicitResidual: under the recursive criteria no
// explicit residual is formed, so there is nothing to pair the next product
// with and not one block pass is made.
func TestLookaheadOnlyWithAnExplicitResidual(t *testing.T) {
	f := newLookaheadFixture(t)
	for _, crit := range []Criterion{RecursiveResidual2Norm, RecursiveResidualMNorm} {
		for _, method := range []string{"pcg", "pcg3"} {
			r := f.run(t, method, true, Options{Tol: 1e-9, Criterion: crit}, 0, nil)
			if !r.st.Converged {
				t.Fatalf("%s/%v: did not converge", method, crit)
			}
			if r.passes.blocks != 0 || r.discarded(false) != 0 {
				t.Errorf("%s/%v: %d block passes, %d products discarded", method, crit, r.passes.blocks, r.discarded(false))
			}
		}
	}
}

// TestPerIterationLoopsAllocateNothing: the 2-column views of the paired pass
// are reused and the collectives' send buffer lives on the context, so a
// solve's allocation count does not grow with its iteration count (beyond the
// amortized growth of Stats.History).
func TestPerIterationLoopsAllocateNothing(t *testing.T) {
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(1))
	f := newLookaheadFixture(t)
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
