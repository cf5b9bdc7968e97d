package suite

import (
	"fmt"
	"math"
	"slices"
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

// TestKey: a suite name keys as itself, spellings of one generator spec
// share one key, a key is a fixed point, and any other name is an error.
func TestKey(t *testing.T) {
	for name, want := range map[string]string{
		"ecology2":          "ecology2",
		" G3_circuit ":      "G3_circuit",
		"poisson2d:16":      "poisson2d:16:16",
		"POISSON2D:16:16":   "poisson2d:16:16",
		" poisson2d:016 ":   "poisson2d:16:16",
		"hubgraph:4096":     "hubgraph:4096:1",
		"varcoeff2d:96:2:3": "varcoeff2d:96:2:3",
	} {
		key, err := Key(name)
		if err != nil || key != want {
			t.Errorf("Key(%q) = %q, %v; want %q", name, key, err, want)
			continue
		}
		if again, err := Key(key); err != nil || again != key {
			t.Errorf("Key(%q) = %q, %v; a key must key as itself", key, again, err)
		}
	}
	for _, name := range []string{"", "no_such_matrix", "Ecology2", "poisson2d", "poisson2d:0", "poisson2d:6:6:6"} {
		if key, err := Key(name); err == nil {
			t.Errorf("Key(%q) = %q, want an error", name, key)
		}
	}
}

// TestKeyAliases counts the suite names whose stand-in is also a generator
// spec's matrix, at the daemon's default scale: the cost of keying by name,
// since each of them and its spec keep two keys and route independently.
// Only an unshifted fem2d problem is one (VarCoeff2D with the problem's
// contrast and seed); every other class scales, shifts or uses a generator
// no spec names.
func TestKeyAliases(t *testing.T) {
	const scale = 100
	var aliases []string
	for _, p := range All() {
		a := p.Build(scale)
		var spec string
		switch p.Class {
		case "fem2d":
			spec = fmt.Sprintf("varcoeff2d:%d:%g:%d", int(math.Round(math.Sqrt(float64(a.Dim())))), p.contrast, p.seed)
		case "fem3d":
			spec = fmt.Sprintf("varcoeff3d:%d:%g:%d", int(math.Round(math.Cbrt(float64(a.Dim())))), p.contrast, p.seed)
		case "graph":
			spec = fmt.Sprintf("circuit:%d:%d", int(math.Round(math.Sqrt(float64(a.Dim())))), p.seed)
		default:
			continue
		}
		build, _, _, err := sparse.ParseMatrixSpec(spec)
		if err != nil {
			t.Fatalf("%s: %s: %v", p.Name, spec, err)
		}
		if build().Fingerprint() == a.Fingerprint() {
			aliases = append(aliases, p.Name)
		}
	}
	if want := []string{"cfd2", "parabolic_fem", "ecology2", "thermal2"}; !slices.Equal(aliases, want) {
		t.Fatalf("suite names with a spec alias: %v, want %v", aliases, want)
	}
}
