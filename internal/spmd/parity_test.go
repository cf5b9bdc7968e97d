package spmd

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"spcg/internal/basis"
	"spcg/internal/eig"
	"spcg/internal/pool"
	"spcg/internal/precond"
	"spcg/internal/solver"
	"spcg/internal/sparse"
	"spcg/internal/suite"
	"spcg/internal/vec"
)

// TestCrossBackendParity runs the one solver core on both execution backends
// and compares them: at p=1 — same kernels, same order, a reduction over one
// contribution — the rank backend must reproduce the local backend bit for
// bit, with the local backend run on one, two and four pool workers; at p>1
// only the summation order of the reductions differs. The collective counts
// pin the communication pattern: 1+2·it for PCG, 2·outer+1 for the s-step
// methods (the boundary test's small collective plus the Gram reduction, and
// one last boundary test).
// The spmd wrappers expose three of the bodies; all six that RunOn can name
// are held to the same parity here.
//
// RecvTimeout turns a rank that left the common control flow into an error
// within seconds; run under -race (CI does) it also pins that no rank writes
// to a reduced buffer another rank reads.
func TestCrossBackendParity(t *testing.T) {
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(1))

	const s, tol = 5, 1e-9
	dubcova, ok := suite.ByName("Dubcova3")
	if !ok {
		t.Fatal("suite problem Dubcova3 missing")
	}
	for _, prob := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"poisson2d:32", sparse.Poisson2D(32, 32)},
		{"suite:Dubcova3/256", dubcova.Build(256)},
	} {
		a := prob.a
		n := a.Dim()
		b := make([]float64, n)
		for i := range b {
			b[i] = float64((i*7919)%13) - 6
		}
		m, err := precond.NewJacobi(a)
		if err != nil {
			t.Fatal(err)
		}
		est, err := eig.RitzFromPCG(a, m.Apply, eig.Options{Iterations: 2 * s})
		if err != nil {
			t.Fatal(err)
		}
		opts := solver.Options{
			S: s, BasisParams: basis.ChebyshevParams(s, est.LambdaMin, est.LambdaMax),
			Tol: tol, MaxIterations: 10 * n, Criterion: solver.RecursiveResidualMNorm,
		}
		for _, method := range []string{"pcg", "spcg", "capcg", "pcg3", "capcg3", "spcgmon"} {
			opts := opts
			if method == "spcgmon" {
				opts.BasisParams = nil // monomial by construction
			}
			local, _ := solver.ByName(method)
			var xLoc []float64
			var stLoc *solver.Stats
			for _, workers := range []int{1, 2, 4} {
				pool.SetDefaultWorkers(workers)
				x, st, err := local(a, m, b, opts)
				if err != nil || !st.Converged {
					t.Fatalf("%s %s on %d workers: local backend: err %v, stats %+v", prob.name, method, workers, err, st)
				}
				if xLoc == nil {
					xLoc, stLoc = x, st
					continue
				}
				for i := range xLoc {
					if x[i] != xLoc[i] || st.Iterations != stLoc.Iterations {
						t.Fatalf("%s %s: local backend on %d workers differs from one worker at x[%d] (%d iterations, %d)",
							prob.name, method, workers, i, st.Iterations, stLoc.Iterations)
					}
				}
			}
			for p := 1; p <= 4; p++ {
				t.Run(fmt.Sprintf("%s/%s/p=%d", prob.name, method, p), func(t *testing.T) {
					w := NewWorld(p)
					w.RecvTimeout = 10 * time.Second
					res, err := solve(w, method, a, b, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Converged {
						t.Fatal("did not converge")
					}
					if p == 1 {
						if res.Iterations != stLoc.Iterations {
							t.Fatalf("%d iterations, local backend %d", res.Iterations, stLoc.Iterations)
						}
						for i := range xLoc {
							if res.X[i] != xLoc[i] {
								t.Fatalf("x[%d] = %v differs from the local backend's %v", i, res.X[i], xLoc[i])
							}
						}
					} else {
						if d := res.Iterations - stLoc.Iterations; d < -s || d > s {
							t.Fatalf("%d iterations, local backend %d", res.Iterations, stLoc.Iterations)
						}
						diff := make([]float64, n)
						vec.Sub(diff, res.X, xLoc)
						if rel := vec.Norm2(diff) / vec.Norm2(xLoc); rel > 1e-8 {
							t.Fatalf("solutions differ by %v", rel)
						}
					}
					var want int
					switch method {
					case "pcg":
						want = 1 + 2*res.Iterations
					case "pcg3": // both dots of an iteration share a collective
						want = 1 + res.Iterations
					default:
						want = 2*(res.Iterations/s) + 1
					}
					if res.Allreduces != want {
						t.Fatalf("%d collectives for %d iterations, want %d", res.Allreduces, res.Iterations, want)
					}
				})
			}
		}
	}
}

// TestBreakdownIsAnError: all three wrappers report a numerical breakdown
// that stopped the run as an error wrapping solver.ErrBreakdown — none
// returns an unconverged result with a nil error.
func TestBreakdownIsAnError(t *testing.T) {
	// Positive diagonal, strongly indefinite: pᵀAp < 0 in the first step.
	coo := sparse.NewCOO(6)
	for i := 0; i < 6; i++ {
		coo.Add(i, i, 1)
		if i > 0 {
			coo.AddSym(i, i-1, 4)
		}
	}
	a := coo.ToCSR()
	b := []float64{1, -1, 1, -1, 1, -1}
	params := basis.MonomialParams(2)
	for name, run := range map[string]func() (*Result, error){
		"pcg":   func() (*Result, error) { return PCGJacobi(a, b, 2, 1e-12, 0) },
		"spcg":  func() (*Result, error) { return SPCGJacobi(a, b, 2, 2, params, 1e-12, 0) },
		"capcg": func() (*Result, error) { return CAPCGJacobi(a, b, 2, 2, params, 1e-12, 0) },
	} {
		res, err := run()
		if !errors.Is(err, solver.ErrBreakdown) {
			t.Errorf("%s: res %+v, err %v; want an error wrapping solver.ErrBreakdown", name, res, err)
		}
	}
}

// backendOnly hides every capability of a rank backend but solver.Backend's
// six methods, so the solver core forms one product, one recurrence and one
// Jacobi application at a time, each product with its own halo exchange.
type backendOnly struct{ solver.Backend }

// rankRun is one solve through solver.RunOn on fresh ranks: the assembled
// iterate, each rank's stats, the point-to-point messages the world sent and
// how many one halo exchange sends (the ranks' peers, summed).
type rankRun struct {
	x        []float64
	stats    []*solver.Stats
	sent     int64
	perRound int64
}

func runRanks(t *testing.T, a *sparse.CSR, b []float64, p int, method string, opts solver.Options, only bool) rankRun {
	t.Helper()
	bes, err := newRankBackends(a, p)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(p)
	w.RecvTimeout = 10 * time.Second
	run := rankRun{x: make([]float64, a.Dim()), stats: make([]*solver.Stats, p)}
	errs := make([]error, p)
	for _, be := range bes {
		run.perRound += int64(len(be.lm.neighbors))
	}
	if err := w.RunE(func(rk *Rank) {
		be := bes[rk.ID]
		be.rk = rk
		var sb solver.Backend = be
		if only {
			sb = backendOnly{be}
		}
		lm := be.lm
		xl, st, err := solver.RunOn(sb, method, b[lm.Lo:lm.Hi], opts)
		run.stats[rk.ID], errs[rk.ID] = st, err
		copy(run.x[lm.Lo:lm.Hi], xl)
	}); err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	run.sent = w.sent.Load()
	return run
}

// TestRankKernelsMatchBackendOnly: the rank backend's fused basis steps are
// invisible to the solve — every body RunOn can name, at p = 2, 3 and 4 and
// under the criterion spmd runs (M-norm) and the true-residual one, gives the
// same iterate bits and the same stats on every rank as through
// solver.Backend's six methods alone — and they merge halo messages only
// where CA-PCG's chains share one two-column exchange per degree, s per
// outer iteration instead of 2s−1.
func TestRankKernelsMatchBackendOnly(t *testing.T) {
	const s = 4
	a := sparse.Poisson2D(24, 24)
	n := a.Dim()
	b := make([]float64, n)
	for i := range b {
		b[i] = float64((i*7919)%13) - 6
	}
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	est, err := eig.RitzFromPCG(a, m.Apply, eig.Options{Iterations: 2 * s})
	if err != nil {
		t.Fatal(err)
	}
	for _, crit := range []solver.Criterion{solver.RecursiveResidualMNorm, solver.TrueResidual2Norm} {
		for _, method := range []string{"pcg", "pcg3", "spcg", "spcgmon", "capcg", "capcg3"} {
			opts := solver.Options{
				S: s, BasisParams: basis.ChebyshevParams(s, est.LambdaMin, est.LambdaMax),
				Tol: 1e-9, MaxIterations: 10 * n, Criterion: crit,
			}
			if method == "spcgmon" {
				opts.BasisParams = nil
			}
			for p := 2; p <= 4; p++ {
				t.Run(fmt.Sprintf("%v/%s/p=%d", crit, method, p), func(t *testing.T) {
					got := runRanks(t, a, b, p, method, opts, false)
					want := runRanks(t, a, b, p, method, opts, true)
					for i := range want.x {
						if got.x[i] != want.x[i] {
							t.Fatalf("x[%d] = %v, %v through the six methods alone", i, got.x[i], want.x[i])
						}
					}
					for r := range want.stats {
						if !reflect.DeepEqual(got.stats[r], want.stats[r]) {
							t.Fatalf("rank %d stats differ:\n rank kernels %+v\n six methods  %+v", r, got.stats[r], want.stats[r])
						}
					}
					st := got.stats[0]
					if !st.Converged {
						t.Fatalf("did not converge: %v", st.Breakdown)
					}
					saved := (want.sent - got.sent) / got.perRound
					switch {
					case method == "capcg":
						k := int64(st.OuterIterations)
						if saved != (s-1)*k {
							t.Errorf("%d halo exchanges saved over %d outer iterations, want %d", saved, k, (s-1)*k)
						}
						// r⁰, s per outer iteration and the final true residual;
						// one more per check that forms b − A·x under the
						// true-residual criterion: the first, and those in the
						// last decade before tol. Each is one counted product
						// beyond Table 1's 2s−1 per outer iteration.
						formed := int64(st.MVProducts) - 1 - (2*s-1)*k
						if crit == solver.TrueResidual2Norm && (formed < 2 || formed > k) || crit != solver.TrueResidual2Norm && formed != 0 {
							t.Errorf("%d of %d checks formed b − A·x under %v", formed, k+1, crit)
						}
						rounds := 2 + s*k + formed
						if got.sent != got.perRound*rounds {
							t.Errorf("%d messages, want %d per halo exchange × %d", got.sent, got.perRound, rounds)
						}
					case saved != 0:
						t.Errorf("%d halo exchanges saved where nothing pairs", saved)
					}
				})
			}
		}
	}
}

// TestRankReducesBoundaryNormOnce: a rank is not a Lookahead backend, so a
// 2-norm criterion reduces the block boundary's ‖r‖² in the boundary test's
// own collective and the Gram collective carries no second copy of it. sPCG
// at s = 4 over 20 outer iterations on two ranks: the recursive 2-norm run
// reduces the M-norm run's values plus one per check (801 + 21 = 822), the
// true-residual run one more per check that formed b − A·x (826), and all
// three end on the same iterate bits.
func TestRankReducesBoundaryNormOnce(t *testing.T) {
	const s = 4
	a := sparse.Poisson2D(24, 24)
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = float64((i*7919)%13) - 6
	}
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	est, err := eig.RitzFromPCG(a, m.Apply, eig.Options{Iterations: 2 * s})
	if err != nil {
		t.Fatal(err)
	}
	var runs [3]rankRun
	for i, crit := range []solver.Criterion{solver.RecursiveResidualMNorm, solver.RecursiveResidual2Norm, solver.TrueResidual2Norm} {
		opts := solver.Options{
			S: s, BasisParams: basis.ChebyshevParams(s, est.LambdaMin, est.LambdaMax),
			Tol: 1e-9, MaxIterations: 20 * s, Criterion: crit,
		}
		runs[i] = runRanks(t, a, b, 2, "spcg", opts, false)
		if !slices.EqualFunc(runs[i].x, runs[0].x, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) }) {
			t.Errorf("%v: the iterate differs from the M-norm run's", crit)
		}
	}
	mnorm, rec, tru := runs[0].stats[0], runs[1].stats[0], runs[2].stats[0]
	checks := mnorm.OuterIterations + 1
	formed := tru.MVProducts - rec.MVProducts
	if mnorm.OuterIterations != 20 || rec.AllreduceValues != mnorm.AllreduceValues+checks || rec.AllreduceValues != 822 {
		t.Errorf("recursive 2-norm: %d values reduced over %d outer iterations, M-norm %d", rec.AllreduceValues, rec.OuterIterations, mnorm.AllreduceValues)
	}
	if formed <= 0 || tru.AllreduceValues != rec.AllreduceValues+formed || tru.AllreduceValues != 826 {
		t.Errorf("true residual: %d values reduced, %d checks formed b − A·x", tru.AllreduceValues, formed)
	}
}

// TestStagnationStopsAlikeOnRanks: the stagnation window reads only reduced
// values, so one rank ends a floored run where the local backend does.
// Monomial sPCG at s = 8 on poisson2d:32 (Jacobi, b = ones, true-residual
// criterion at tol 1e-9) stalls near 1e-7: on both backends it ends on the
// stagnation site at the same iteration and on the same iterate bits.
func TestStagnationStopsAlikeOnRanks(t *testing.T) {
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(1))
	a := sparse.Poisson2D(32, 32)
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1
	}
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	opts := solver.Options{S: 8, Basis: basis.Monomial, Tol: 1e-9, MaxIterations: 3000}
	xLoc, stLoc, err := solver.SPCG(a, m, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	run := runRanks(t, a, b, 1, "spcg", opts, false)
	for _, st := range []*solver.Stats{stLoc, run.stats[0]} {
		var be *solver.BreakdownError
		if !errors.As(st.Breakdown, &be) || be.Site != solver.SiteStagnation || st.Converged {
			t.Fatalf("converged %v, breakdown %v; want the %q site", st.Converged, st.Breakdown, solver.SiteStagnation)
		}
	}
	if it := run.stats[0].Iterations; it != stLoc.Iterations {
		t.Fatalf("rank stopped at iteration %d, local backend at %d", it, stLoc.Iterations)
	}
	for i := range xLoc {
		if run.x[i] != xLoc[i] {
			t.Fatalf("x[%d] = %v differs from the local backend's %v", i, run.x[i], xLoc[i])
		}
	}
}
