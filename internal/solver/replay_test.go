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
// behavior, the cluster only prices it. Checked both fault-free and with a
// fault-model machine (retries are recorded per event and re-priced, so the
// property must survive them). Every event kind of the price list is in
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
	machines := []struct {
		name string
		m    dist.Machine
	}{
		{"fault-free", dist.DefaultMachine()},
		{"faulty", func() dist.Machine {
			mm := dist.DefaultMachine()
			mm.Faults = dist.FaultModel{CommFailProb: 0.15, StragglerFactor: 1.3, Seed: 5}
			return mm
		}()},
	}
	for _, mc := range machines {
		cl, err := dist.NewCluster(mc.m, 1, a)
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
				t.Fatalf("%s/%s: %v", mc.name, fam.name, err)
			}
			if !stats.Converged {
				t.Fatalf("%s/%s did not converge: %+v", mc.name, fam.name, stats.Breakdown)
			}
			if tr.Time <= 0 {
				t.Fatalf("%s/%s charged no time", mc.name, fam.name)
			}
			if replayed := tr.ReplayOn(cl); replayed != tr.Time {
				t.Fatalf("%s/%s: ReplayOn(same cluster) = %v, Tracker.Time = %v (diff %v)",
					mc.name, fam.name, replayed, tr.Time, replayed-tr.Time)
			}
			if mc.name == "faulty" && tr.Counts.RetriedMessages == 0 {
				t.Fatalf("%s/%s: fault machine drew no retries", mc.name, fam.name)
			}
			c := tr.Counts
			wantHalos := c.SpMVs + m.HaloExchanges()*c.PrecApplies
			if c.SpMVs == 0 || c.PrecApplies == 0 || c.Allreduces == 0 || c.LocalReduceOps == 0 ||
				c.LocalFlops <= m.Flops()*float64(c.PrecApplies) || c.HaloExchanges != wantHalos {
				t.Fatalf("%s/%s: an event kind is missing from the stream: %+v", mc.name, fam.name, c)
			}
		}
	}
}
