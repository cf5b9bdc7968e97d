package sparse

import (
	"math/rand"
	"testing"
)

// generatorGolden pins Fingerprint() of every matrix-spec family at a small
// size (two seeds for the seeded ones), the serving benchmark's largest
// graph, and the direct generators the grammar does not reach. The hashes
// were recorded before the generators were rewritten to write each row in
// final order: a generator or ToCSR change that moves one bit fails here.
var generatorGolden = []struct {
	name  string
	build func() *CSR
	fp    uint64
}{
	{"poisson1d:50", spec("poisson1d:50"), 0x0187250185104b31},
	{"poisson2d:12", spec("poisson2d:12"), 0xf04ca27602b7cc66},
	{"poisson2d:9:7", spec("poisson2d:9:7"), 0xdb12636915ba1063},
	{"poisson3d:6", spec("poisson3d:6"), 0x255f6b84e706ea61},
	{"poisson3d:3:4:5", spec("poisson3d:3:4:5"), 0xf6bf5207ec4e8c94},
	{"varcoeff2d:16:2:1", spec("varcoeff2d:16:2:1"), 0x935b6d6484b5bbb0},
	{"varcoeff2d:16:2:2", spec("varcoeff2d:16:2:2"), 0x6c0df65f466a382a},
	{"varcoeff2d:9:5:3", spec("varcoeff2d:9:5:3"), 0x510c05d2ab895879},
	{"varcoeff3d:7:2:1", spec("varcoeff3d:7:2:1"), 0xcadb60a8adb4198a},
	{"varcoeff3d:7:2:2", spec("varcoeff3d:7:2:2"), 0x24cad39bfcb145b2},
	{"varcoeff3d:1:2", spec("varcoeff3d:1:2"), 0x68297e1023fd41df},
	{"aniso2d:12:0.01", spec("aniso2d:12:0.01"), 0xad421ef1b8fe2986},
	{"hubgraph:1024:1", spec("hubgraph:1024:1"), 0xa2574c1d8a64a5a0},
	{"hubgraph:1024:2", spec("hubgraph:1024:2"), 0x1f516404fcf37de7},
	{"hubgraph:8192:1", spec("hubgraph:8192:1"), 0xe3c2028399c5f063},
	{"circuit:20:1", spec("circuit:20:1"), 0xd087fc5f5c782ec3},
	{"circuit:20:2", spec("circuit:20:2"), 0xc252b4780dbef096},
	{"Poisson3D27(5,6,7)", func() *CSR { return Poisson3D27(5, 6, 7) }, 0x2533b8f501455743},
	{"Poisson3D27(1,1,2)", func() *CSR { return Poisson3D27(1, 1, 2) }, 0xdf04dd4957c5d5a1},
	{"VarCoeff2D(7,5,3,4)", func() *CSR { return VarCoeff2D(7, 5, 3, 4) }, 0x4bb92b6fb6679223},
	{"VarCoeff3D(3,4,5,3,4)", func() *CSR { return VarCoeff3D(3, 4, 5, 3, 4) }, 0x778e24b5360d17b9},
	{"RandomGraphLaplacian(500,4,0.1,1)", func() *CSR { return RandomGraphLaplacian(500, 4, 0.1, 1) }, 0x1b37f9f2c7081471},
	{"SPDWithSpectrum(200,400,3)", func() *CSR { return SPDWithSpectrum(GeometricSpectrum(200, 1, 1e4), 400, 3) }, 0x43e746efe394c26c},
}

func spec(s string) func() *CSR {
	return func() *CSR {
		build, _, _, err := ParseMatrixSpec(s)
		if err != nil {
			panic(err)
		}
		return build()
	}
}

func TestGeneratorFingerprintsPinned(t *testing.T) {
	for _, g := range generatorGolden {
		if fp := g.build().Fingerprint(); fp != g.fp {
			t.Errorf("%s: fingerprint %#016x, pinned %#016x", g.name, fp, g.fp)
		}
	}
}

// TestGeneratorsAllocationFree: the stencil generators write every row in
// final order straight into the CSR arrays, so a build costs a fixed handful
// of allocations (the arrays, the coefficient field, the seeded source)
// whatever the grid size. A per-row slice or sort shows up as thousands.
func TestGeneratorsAllocationFree(t *testing.T) {
	gens := []struct {
		name  string
		build func()
	}{
		{"Poisson2D(64,64)", func() { Poisson2D(64, 64) }},
		{"Poisson3D(16,16,16)", func() { Poisson3D(16, 16, 16) }},
		{"Poisson3D27(16,16,16)", func() { Poisson3D27(16, 16, 16) }},
		{"VarCoeff2D(64,64)", func() { VarCoeff2D(64, 64, 2, 1) }},
		{"VarCoeff3D(16,16,16)", func() { VarCoeff3D(16, 16, 16, 2, 1) }},
		{"Anisotropic2D(64,64)", func() { Anisotropic2D(64, 64, 0.01) }},
	}
	for _, g := range gens {
		if allocs := testing.AllocsPerRun(3, g.build); allocs > 10 {
			t.Errorf("%s: %v allocations per build, want ≤ 10", g.name, allocs)
		}
	}
}

// RandomGraphLaplacian returns L + shift·I for the Laplacian of a random
// graph where every vertex gets `degree` random out-edges (symmetrized):
// emulates circuit matrices (G2_circuit/G3_circuit class). Deterministic in
// seed.
func RandomGraphLaplacian(n, degree int, shift float64, seed int64) *CSR {
	if degree < 1 || n < 2 {
		panic("sparse: RandomGraphLaplacian needs n ≥ 2, degree ≥ 1")
	}
	rng := rand.New(rand.NewSource(seed))
	coo := newCOOCap(n, n*(2*degree+1))
	deg := make([]float64, n)
	for i := 0; i < n; i++ {
		for e := 0; e < degree; e++ {
			j := rng.Intn(n)
			if j == i {
				j = (j + 1) % n
			}
			w := 0.5 + rng.Float64()
			coo.AddSym(i, j, -w)
			deg[i] += w
			deg[j] += w
		}
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, deg[i]+shift)
	}
	return coo.ToCSR()
}
