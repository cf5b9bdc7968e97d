package suite

import (
	"math"
	"testing"

	"spcg/internal/dense"
	"spcg/internal/precond"
	"spcg/internal/solver"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

func TestSuiteHas40Problems(t *testing.T) {
	ps := All()
	if len(ps) != 40 {
		t.Fatalf("suite has %d problems, want 40 (paper Table 2)", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Fatalf("duplicate problem %q", p.Name)
		}
		seen[p.Name] = true
		if p.PaperRows < 100000 || p.PaperRows > 2000000 {
			t.Errorf("%s: paper rows %d outside the paper's 100k–2M window", p.Name, p.PaperRows)
		}
		if p.Paper.PCG <= 0 || p.Paper.PCG > 10000 {
			t.Errorf("%s: paper PCG iterations %d outside the convergence window", p.Name, p.Paper.PCG)
		}
	}
}

func TestAllProblemsBuildSPD(t *testing.T) {
	for _, p := range All() {
		a := p.Build(256) // small instances for the structural check
		if a.Dim() < 300 {
			t.Errorf("%s: built only %d rows", p.Name, a.Dim())
		}
		if !a.IsSymmetric(1e-10) {
			t.Errorf("%s: not symmetric", p.Name)
		}
		for i, v := range a.Diag() {
			if v <= 0 {
				t.Errorf("%s: diag[%d] = %v", p.Name, i, v)
				break
			}
		}
	}
}

func TestBuildScalesSize(t *testing.T) {
	p, ok := ByName("audikw_1")
	if !ok {
		t.Fatal("audikw_1 missing")
	}
	small := p.Build(512)
	big := p.Build(64)
	if big.Dim() <= small.Dim() {
		t.Fatalf("scale 64 (%d rows) not larger than scale 512 (%d rows)", big.Dim(), small.Dim())
	}
	// Degenerate scales clamp to scale 1 (full size); check on a small
	// problem to keep the test fast.
	sp, _ := ByName("thermomech_TC")
	tiny := sp.Build(0)
	if tiny.Dim() < sp.PaperRows/2 {
		t.Fatalf("scale 0 should clamp to full size, got %d rows", tiny.Dim())
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("no_such_matrix"); ok {
		t.Fatal("found a matrix that does not exist")
	}
	p, ok := ByName("G3_circuit")
	if !ok || p.Class != "graph" {
		t.Fatalf("G3_circuit lookup: %+v %v", p, ok)
	}
}

func TestTable3List(t *testing.T) {
	ps := Table3()
	if len(ps) != 7 {
		t.Fatalf("Table 3 has %d problems, want 7", len(ps))
	}
	want := []string{"parabolic_fem", "apache2", "audikw_1", "ldoor", "ecology2", "Geo_1438", "G3_circuit"}
	for i, p := range ps {
		if p.Name != want[i] {
			t.Fatalf("Table 3[%d] = %s, want %s", i, p.Name, want[i])
		}
		// Every Table 3 problem must have ≥ 2 converging s-step methods
		// with the Chebyshev basis in the paper's data.
		conv := 0
		for _, it := range []int{p.Paper.SPCGCheb, p.Paper.CAPCGCheb, p.Paper.CAPCG3Cheb} {
			if it > 0 {
				conv++
			}
		}
		if conv < 2 {
			t.Errorf("%s: only %d converging s-step methods in paper data", p.Name, conv)
		}
	}
}

func TestSortedBySize(t *testing.T) {
	ps := SortedBySize()
	for i := 1; i < len(ps); i++ {
		if ps[i].PaperRows < ps[i-1].PaperRows {
			t.Fatal("not sorted")
		}
	}
}

func TestDifficultyOrdering(t *testing.T) {
	// An easy suite member must converge much faster than a hard one at the
	// same scale — the property that makes the difficulty mapping useful.
	easy, _ := ByName("thermomech_TC")
	hard, _ := ByName("cfd2")
	run := func(p Problem) int {
		a := p.Build(256)
		n := a.Dim()
		b := make([]float64, n)
		xs := make([]float64, n)
		vec.Fill(xs, 1)
		a.MulVec(b, xs)
		m, err := precond.NewJacobi(a)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := solver.PCG(a, m, b, solver.Options{Tol: 1e-9, MaxIterations: 12000})
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged {
			t.Fatalf("%s did not converge at test scale", p.Name)
		}
		return st.Iterations
	}
	ei, hi := run(easy), run(hard)
	if ei*3 > hi {
		t.Fatalf("difficulty ordering violated: easy %d iterations vs hard %d", ei, hi)
	}
}

// TestStandInsAreRealProblems holds every stand-in, at the scale CI runs
// Table 2 on (1/256), to the paper's Table 2 PCG column under that table's own
// set-up: degree-3 Chebyshev preconditioner, solution 1/√n, true-residual
// criterion at 1e-9. PCG must converge within a factor 8 of the paper's count
// (the healthy rows sit between 0.17× and 1.9×). The 12 rows EXPERIMENTS.md
// records as not converging within the scaled cut-off may hit that cut-off
// (3000, the documented run's -maxiters) instead. A stand-in that degenerates
// — G2_circuit solved in one iteration before it was rescaled, because
// A·(1/√n) was an eigenvector — lands at 0.002× and fails here.
func TestStandInsAreRealProblems(t *testing.T) {
	const (
		scale  = 256
		cutoff = 3000
		factor = 8
	)
	hard := map[string]bool{ // PCG "-" in table2_output.txt
		"pwtk": true, "af_0_k101": true, "af_1_k101": true, "af_2_k101": true,
		"af_3_k101": true, "af_4_k101": true, "af_5_k101": true, "Fault_639": true,
		"Emilia_923": true, "bone010": true, "Serena": true, "Flan_1565": true,
	}
	// G3_circuit still has G2_circuit's defect (a uniform ground conductance
	// on a Laplacian). Rescaling it moves its Table 3 row, so it waits for the
	// Table 2 regeneration (ROADMAP); until then the defect is pinned here
	// rather than tolerated by a wider factor.
	degenerate := map[string]bool{"G3_circuit": true}
	spec, err := precond.Parse("chebyshev:3")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range All() {
		a := p.Build(scale)
		n := a.Dim()
		xs, b := make([]float64, n), make([]float64, n)
		vec.Fill(xs, 1/math.Sqrt(float64(n)))
		a.MulVec(b, xs)
		m, err := spec.Build(a)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		_, st, err := solver.PCG(a, m, b, solver.Options{Tol: 1e-9, MaxIterations: cutoff, Criterion: solver.TrueResidual2Norm})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		switch {
		case degenerate[p.Name]:
			if st.Iterations > 1 {
				t.Errorf("%s: %d iterations — no longer degenerate, drop it from the exception list", p.Name, st.Iterations)
			}
		case !st.Converged && hard[p.Name] && st.Iterations == cutoff:
			// recorded: beyond the scaled cut-off
		case !st.Converged:
			t.Errorf("%s: PCG did not converge in %d iterations (paper: %d)", p.Name, st.Iterations, p.Paper.PCG)
		case st.Iterations*factor < p.Paper.PCG || st.Iterations > p.Paper.PCG*factor:
			t.Errorf("%s: PCG took %d iterations at scale %d, outside a factor %d of the paper's %d",
				p.Name, st.Iterations, scale, factor, p.Paper.PCG)
		}
	}
}

func TestScaleSymPreservesSPD(t *testing.T) {
	a := sparse.Poisson2D(12, 12)
	b := scaleSym(a, 4, 7)
	if !b.IsSymmetric(1e-12) {
		t.Fatal("scaleSym broke symmetry")
	}
	// D^½AD^½ is a congruence transform: SPD is preserved exactly (though
	// diagonal dominance is not). Verify via the spectrum.
	vals, err := dense.SymEigen(dense.FromRowMajor(b.Dim(), b.Dim(), b.Dense()))
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] <= 0 {
		t.Fatalf("scaleSym broke positive definiteness: λmin = %v", vals[0])
	}
	// contrast 0 returns the matrix unchanged.
	if c := scaleSym(a, 0, 7); c != a {
		t.Fatal("contrast 0 should be identity")
	}
}

func TestSuiteSparsityClasses(t *testing.T) {
	// Each generator family should land in its sparsity class: the stand-ins
	// mirror the originals' nnz/row character (5-point ≈ 5, 7-point ≈ 7,
	// 27-point ≈ 20+, graph ≈ 5–10).
	for _, p := range All() {
		a := p.Build(256)
		perRow := float64(a.NNZ()) / float64(a.Dim())
		var lo, hi float64
		switch p.Class {
		case "fem2d":
			lo, hi = 4, 5.2
		case "fem3d", "poisson3d":
			lo, hi = 5.5, 7.2
		case "fem3d27":
			lo, hi = 15, 27.5
		case "graph":
			lo, hi = 4, 10
		case "aniso":
			lo, hi = 4, 5.2
		default:
			t.Fatalf("%s: unknown class %q", p.Name, p.Class)
		}
		if perRow < lo || perRow > hi {
			t.Errorf("%s (%s): %.1f nnz/row outside [%g, %g]", p.Name, p.Class, perRow, lo, hi)
		}
	}
}
