package solver

import (
	"testing"

	"spcg/internal/basis"
	"spcg/internal/dist"
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

// TestTracePCGPhases: a traced PCG run attributes time to the expected
// phases, counts one collective per allreduce (with payload = reduced
// values), and mirrors halo exchanges from the tracker.
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
	for _, want := range []string{"spmv", "prec", "gram", "vector", "collective", "halo"} {
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
	// Halos come from the tracker; PCG does one exchange per SpMV.
	if got, want := ph["halo"].Count, int64(stats.MVProducts); got != want {
		t.Errorf("halo spans = %d, MVProducts = %d", got, want)
	}
	bd := tr.Breakdown()
	if bd.Collectives != int64(stats.Allreduces) || bd.TotalSeconds <= 0 {
		t.Errorf("breakdown inconsistent: %+v", bd)
	}
}

// TestTraceHalosStayWithTheirSolve: a tracker reused across solves keeps no
// hold on an earlier solve's tracer. The traced solve's halo spans equal the
// tracker's halo exchanges, products and preconditioner halos (Chebyshev)
// alike, and a later untraced solve on the same tracker adds none to them.
func TestTraceHalosStayWithTheirSolve(t *testing.T) {
	a := sparse.Poisson2D(16, 16)
	b, _ := testProblem(a)
	m, err := precond.NewChebyshev(a, 3, 0.06, 8)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dist.NewCluster(dist.DefaultMachine(), 1, a)
	if err != nil {
		t.Fatal(err)
	}
	tracker := dist.NewTracker(cl)
	tr := obs.New(0)
	if _, _, err := PCG(a, m, b, Options{Tol: 1e-8, Trace: tr, Tracker: tracker}); err != nil {
		t.Fatal(err)
	}
	// A halo span's payload is the exchanges it counts: one per product, the
	// preconditioner's own per application.
	traced := phaseMap(tr.Breakdown().Phases)["halo"].Payload
	if want := int64(tracker.Counts.HaloExchanges); traced != want || m.HaloExchanges() == 0 {
		t.Fatalf("halo payload = %d, tracker halo exchanges = %d (prec halos %d)", traced, want, m.HaloExchanges())
	}
	if _, _, err := PCG(a, m, b, Options{Tol: 1e-8, Tracker: tracker}); err != nil {
		t.Fatal(err)
	}
	if got := phaseMap(tr.Breakdown().Phases)["halo"].Payload; got != traced {
		t.Fatalf("untraced solve added %d halo exchanges to the earlier solve's trace", got-traced)
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
// leaves Stats.Phases nil.
func TestTraceNilUnchanged(t *testing.T) {
	a := sparse.Poisson2D(16, 16)
	b, _ := testProblem(a)
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	xPlain, stPlain, err := SPCG(a, m, b, Options{S: 4, Basis: basis.Chebyshev, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	xTraced, stTraced, err := SPCG(a, m, b, Options{S: 4, Basis: basis.Chebyshev, Tol: 1e-9, Trace: obs.New(64)})
	if err != nil {
		t.Fatal(err)
	}
	if stPlain.Phases != nil {
		t.Errorf("untraced run has Phases: %+v", stPlain.Phases)
	}
	if len(stTraced.Phases) == 0 {
		t.Error("traced run has no Phases")
	}
	if stPlain.Iterations != stTraced.Iterations || stPlain.Allreduces != stTraced.Allreduces {
		t.Errorf("tracing changed the run: %+v vs %+v", stPlain, stTraced)
	}
	d := make([]float64, len(xPlain))
	vec.Sub(d, xPlain, xTraced)
	if vec.Norm2(d) != 0 {
		t.Errorf("tracing changed the solution by %g", vec.Norm2(d))
	}
}
