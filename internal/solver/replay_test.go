package solver

import (
	"testing"

	"spcg/internal/basis"
	"spcg/internal/dist"
	"spcg/internal/precond"
	"spcg/internal/sparse"
)

// TestReplayOnSameClusterReproducesTime is the replay property: for every
// solver family, a recording tracker replayed on its own cluster must
// reproduce the charged time bit-for-bit — the event stream carries the full
// behavior, the cluster only prices it. Every event kind of the price list is in
// every replayed stream: SpMV, local vector work, local reduction work and
// allreduce from the solver, and a preconditioner application that carries
// halo exchanges of its own (Chebyshev, degree 3).
func TestReplayOnSameClusterReproducesTime(t *testing.T) {
	a := sparse.Poisson2D(16, 16)
	b, _ := testProblem(a)
	m, err := precond.NewChebyshev(a, 3, 0.06, 8) // σ(A) ⊂ (0.068, 8) for the 16×16 Poisson grid
	if err != nil {
		t.Fatal(err)
	}
	families := []struct {
		name string
		run  Method
	}{
		{"pcg", PCG}, {"pcg3", PCG3},
		{"spcg", SPCG}, {"spcgmon", SPCGMon},
		{"capcg", CAPCG}, {"capcg3", CAPCG3},
		{"adaptive", SPCGAdaptive},
	}
	cl, err := dist.NewCluster(dist.DefaultMachine(), 1, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range families {
		tr := dist.NewRecordingTracker(cl)
		opts := Options{
			S: 4, Basis: basis.Chebyshev, Tol: 1e-8,
			Criterion: RecursiveResidualMNorm, Tracker: tr,
		}
		_, stats, err := fam.run(a, m, b, opts)
		if err != nil {
			t.Fatalf("%s: %v", fam.name, err)
		}
		if !stats.Converged {
			t.Fatalf("%s did not converge: %+v", fam.name, stats.Breakdown)
		}
		if tr.Time <= 0 {
			t.Fatalf("%s charged no time", fam.name)
		}
		if replayed := tr.ReplayOn(cl); replayed != tr.Time {
			t.Fatalf("%s: ReplayOn(same cluster) = %v, Tracker.Time = %v (diff %v)",
				fam.name, replayed, tr.Time, replayed-tr.Time)
		}
		c := tr.Counts
		wantHalos := c.SpMVs + m.HaloExchanges()*c.PrecApplies
		if c.SpMVs == 0 || c.PrecApplies == 0 || c.Allreduces == 0 || c.LocalReduceOps == 0 ||
			c.LocalFlops <= m.Flops()*float64(c.PrecApplies) || c.HaloExchanges != wantHalos {
			t.Fatalf("%s: an event kind is missing from the stream: %+v", fam.name, c)
		}
	}
}
