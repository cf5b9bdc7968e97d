package solver

import (
	"math"
	"reflect"
	"testing"

	"spcg/internal/basis"
	"spcg/internal/eig"
	"spcg/internal/fault"
	"spcg/internal/pool"
	"spcg/internal/precond"
)

// TestCAPCGChainsSharePasses: CA-PCG's Q and R̂ chains share each pass over
// the matrix on the local backend — a fused 2-column basis step with Jacobi
// (s passes per outer iteration on the pool's fused-step counter), a 2-column
// product with a non-diagonal preconditioner (s−1 block passes) — and the
// solve is indistinguishable from one that runs the chains one after the
// other: iterate bits, every Stats field, the modeled time and the tracker's
// counts, and so Table 1's 2s−1 products and applications per outer
// iteration. An installed fault injector runs the chains one after the other.
func TestCAPCGChainsSharePasses(t *testing.T) {
	const s = 5
	jacobi := newPassFixture(t)
	ic0, err := precond.NewIC0(jacobi.a)
	if err != nil {
		t.Fatal(err)
	}
	est, err := eig.RitzFromPCG(jacobi.a, jacobi.m.Apply, eig.Options{Iterations: 2 * s})
	if err != nil {
		t.Fatal(err)
	}
	opts := func() Options {
		return Options{S: s, Basis: basis.Chebyshev, Spectrum: est, Tol: 1e-9, MaxIterations: 400}
	}
	soft := &fault.Config{SpMVCorruptProb: 0.02}
	for _, tc := range []struct {
		name   string
		f      passFixture
		faults *fault.Config
		check  func(t *testing.T, r, separate passRun, fusedSteps uint64)
	}{
		{"jacobi", jacobi, nil, func(t *testing.T, r, separate passRun, fusedSteps uint64) {
			// The separate run has no fused step: its 2s−1 products per outer
			// iteration are single passes.
			k := r.st.OuterIterations
			if fusedSteps != uint64(s*k) || r.passes.blocks != 0 || r.passes.vecs+(2*s-1)*k != separate.passes.vecs {
				t.Errorf("%d fused steps, %d block and %d single passes over %d outer iterations, want %d, 0 and %d",
					fusedSteps, r.passes.blocks, r.passes.vecs, k, s*k, separate.passes.vecs-(2*s-1)*k)
			}
		}},
		{"ic0", passFixture{jacobi.a, ic0, jacobi.b}, nil, func(t *testing.T, r, separate passRun, fusedSteps uint64) {
			k := r.st.OuterIterations
			if r.passes.blocks != (s-1)*k || fusedSteps != 0 || r.passes.vecs+2*r.passes.blocks != separate.passes.vecs {
				t.Errorf("%d block and %d single passes, %d fused steps over %d outer iterations, want %d, %d and 0",
					r.passes.blocks, r.passes.vecs, fusedSteps, k, (s-1)*k, separate.passes.vecs-2*(s-1)*k)
			}
		}},
		{"injector", jacobi, soft, func(t *testing.T, r, separate passRun, fusedSteps uint64) {
			if r.passes.blocks != 0 || fusedSteps != 0 || r.passes.vecs != separate.passes.vecs {
				t.Errorf("%d block passes and %d fused steps under a fault injector", r.passes.blocks, fusedSteps)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := pool.ReadStats().FusedBasisSteps
			got := tc.f.run(t, "capcg", true, opts(), 7, tc.faults)
			fusedSteps := pool.ReadStats().FusedBasisSteps - before
			want := tc.f.run(t, "capcg", false, opts(), 7, tc.faults)
			if tc.faults == nil && !got.st.Converged {
				t.Fatalf("did not converge: %v", got.st.Breakdown)
			}
			if (got.err == nil) != (want.err == nil) || !sameBits(got.x, want.x) {
				t.Fatalf("iterates differ (err %v vs %v)", got.err, want.err)
			}
			got.st.Phases, want.st.Phases = nil, nil
			if !reflect.DeepEqual(got.st, want.st) {
				t.Fatalf("stats differ:\n shared   %+v\n separate %+v", got.st, want.st)
			}
			if math.Float64bits(got.st.SimTime) != math.Float64bits(want.st.SimTime) || got.faults != want.faults || got.model != want.model {
				t.Fatalf("SimTime %v vs %v, fault counts %+v vs %+v, model counts %+v vs %+v",
					got.st.SimTime, want.st.SimTime, got.faults, want.faults, got.model, want.model)
			}
			// Table 1: r⁰, 2s−1 per outer iteration, and under the default
			// true-residual criterion one explicit residual per check that
			// forms it: the first, and those in the last decade before tol.
			k := got.st.OuterIterations
			formed := 1 + formedChecks(got.st, opts().Tol)
			if tc.faults == nil && (formed < 2 || formed > k || got.st.MVProducts != 1+(2*s-1)*k+formed) {
				t.Errorf("MVProducts = %d over %d outer iterations, %d of %d checks formed b − A·x", got.st.MVProducts, k, formed, k+1)
			}
			tc.check(t, got, want, fusedSteps)
		})
	}
}
