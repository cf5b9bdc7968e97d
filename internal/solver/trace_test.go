package solver

import (
	"reflect"
	"testing"
	"time"

	"spcg/internal/basis"
	"spcg/internal/dist"
	"spcg/internal/fault"
	"spcg/internal/obs"
	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// phaseMap indexes a Stats.Phases slice by phase name.
func phaseMap(phases []obs.PhaseStat) map[string]obs.PhaseStat {
	m := map[string]obs.PhaseStat{}
	for _, p := range phases {
		m[p.Phase] = p
	}
	return m
}

// TestTracePCGPhases: a traced PCG run with a tracker attached attributes
// time to the expected phases and counts one collective per allreduce (with
// payload = reduced values).
func TestTracePCGPhases(t *testing.T) {
	a := sparse.Poisson2D(20, 20)
	b, _ := testProblem(a)
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	machine := dist.DefaultMachine()
	machine.RanksPerNode = 8
	cl, err := dist.NewCluster(machine, 1, a)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(0)
	opts := Options{Tol: 1e-10, Trace: tr, Tracker: dist.NewTracker(cl)}
	_, stats, err := PCG(a, m, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatalf("did not converge: %+v", stats)
	}
	if len(stats.Phases) == 0 {
		t.Fatal("Stats.Phases empty with Trace set")
	}
	ph := phaseMap(stats.Phases)
	for _, want := range []string{"spmv", "prec", "gram", "vector", "collective"} {
		if ph[want].Count == 0 {
			t.Errorf("phase %q has no spans: %+v", want, stats.Phases)
		}
	}
	for _, timed := range []string{"spmv", "prec", "gram", "vector"} {
		if ph[timed].Seconds <= 0 {
			t.Errorf("timed phase %q recorded zero duration", timed)
		}
	}
	// One collective span per allreduce, payload = total reduced values.
	if got, want := ph["collective"].Count, int64(stats.Allreduces); got != want {
		t.Errorf("collective spans = %d, stats.Allreduces = %d", got, want)
	}
	if got, want := ph["collective"].Payload, int64(stats.AllreduceValues); got != want {
		t.Errorf("collective payload = %d, stats.AllreduceValues = %d", got, want)
	}
	bd := tr.Breakdown()
	if bd.Collectives != int64(stats.Allreduces) || bd.TotalSeconds <= 0 {
		t.Errorf("breakdown inconsistent: %+v", bd)
	}
}

// TestTraceSPCGPhases: sPCG's trace shows the s-step structure — basis and
// block-update phases present, roughly one collective per outer iteration —
// and scalar work from Algorithm 6.
func TestTraceSPCGPhases(t *testing.T) {
	a := sparse.Poisson2D(24, 24)
	b, _ := testProblem(a)
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(0)
	opts := Options{S: 6, Basis: basis.Chebyshev, Tol: 1e-9, Trace: tr}
	_, stats, err := SPCG(a, m, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatalf("did not converge: %+v", stats)
	}
	ph := phaseMap(stats.Phases)
	for _, want := range []string{"basis", "gram", "block_update", "collective", "scalar_work"} {
		if ph[want].Count == 0 {
			t.Errorf("phase %q has no spans: %+v", want, stats.Phases)
		}
	}
	if got, want := ph["collective"].Count, int64(stats.Allreduces); got != want {
		t.Errorf("collective spans = %d, stats.Allreduces = %d", got, want)
	}
	// The single-reduction property: collectives ≈ outer iterations, far
	// below 2·iterations (PCG's rate).
	if stats.OuterIterations > 0 && stats.Allreduces > 2*stats.OuterIterations+2 {
		t.Errorf("sPCG made %d collectives over %d outer iterations", stats.Allreduces, stats.OuterIterations)
	}
}

// TestTraceNilUnchanged: running without a tracer yields the same solution
// and stats as a traced run (instrumentation must not perturb numerics), and
// leaves Stats.Phases nil. Jacobi sPCG takes the fused basis step; IC(0)
// sPCG and CA-PCG build their bases one product and application at a time,
// under the one span powers opens around the kernel.
func TestTraceNilUnchanged(t *testing.T) {
	a := sparse.Poisson2D(16, 16)
	b, _ := testProblem(a)
	jac, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := precond.NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  Method
		m    precond.Interface
	}{
		{"spcg/jacobi", SPCG, jac},
		{"spcg/ic0", SPCG, ic},
		{"capcg/ic0", CAPCG, ic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{S: 4, Basis: basis.Chebyshev, Tol: 1e-9}
			xPlain, stPlain, err := tc.run(a, tc.m, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Trace = obs.New(64)
			xTraced, stTraced, err := tc.run(a, tc.m, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			if stPlain.Phases != nil {
				t.Errorf("untraced run has Phases: %+v", stPlain.Phases)
			}
			if len(stTraced.Phases) == 0 {
				t.Error("traced run has no Phases")
			}
			traced := *stTraced
			traced.Phases = nil
			if !reflect.DeepEqual(*stPlain, traced) {
				t.Errorf("tracing changed the run: %+v vs %+v", stPlain, stTraced)
			}
			d := make([]float64, len(xPlain))
			vec.Sub(d, xPlain, xTraced)
			if vec.Norm2(d) != 0 {
				t.Errorf("tracing changed the solution by %g", vec.Norm2(d))
			}
		})
	}
}

// TestOneBasisSpanPerKernel: a matrix-powers call is one basis span whatever
// path the kernel takes — the fused Jacobi step, IC(0) one product and
// application at a time (paired across CA-PCG's two chains), or Jacobi with a
// zero-rate fault injector, which turns the fused step off. The spmv and prec
// spans outside the kernel are the same in all three runs, and no span nests
// in another.
func TestOneBasisSpanPerKernel(t *testing.T) {
	a := sparse.Poisson2D(24, 24)
	b, _ := testProblem(a)
	jac, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := precond.NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	const s, outer = 4, 5
	for _, method := range []struct {
		name string
		run  Method
	}{{"spcg", SPCG}, {"capcg", CAPCG}} {
		t.Run(method.name, func(t *testing.T) {
			var first map[string]obs.PhaseStat
			for _, v := range []struct {
				name string
				m    precond.Interface
				inj  *fault.Injector
			}{
				{"jacobi", jac, nil},
				{"ic0", ic, nil},
				{"jacobi+injector", jac, fault.New(1, fault.Config{})},
			} {
				tr := obs.New(0)
				// A tolerance no run reaches: every run does the same outer
				// iterations.
				opts := Options{S: s, Basis: basis.Chebyshev, Tol: 1e-30, MaxIterations: outer * s,
					Trace: tr, Injector: v.inj}
				start := time.Now()
				_, st, err := method.run(a, v.m, b, opts)
				wall := time.Since(start).Seconds()
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if st.OuterIterations != outer {
					t.Fatalf("%s: %d outer iterations, want %d", v.name, st.OuterIterations, outer)
				}
				ph := phaseMap(st.Phases)
				if got := ph["basis"].Count; got != outer {
					t.Errorf("%s: %d basis spans over %d outer iterations, want one each", v.name, got, outer)
				}
				if first == nil {
					first = ph
				} else {
					for _, p := range []string{"spmv", "prec"} {
						if ph[p].Count != first[p].Count {
							t.Errorf("%s: %d %s spans, jacobi run has %d", v.name, ph[p].Count, p, first[p].Count)
						}
					}
				}
				if total := tr.Breakdown().TotalSeconds; total > wall {
					t.Errorf("%s: spans sum to %gs, more than the solve's %gs wall time", v.name, total, wall)
				}
			}
		})
	}
}
