// Package suite defines the synthetic counterpart of the paper's Table 2
// matrix collection: all 40 SPD SuiteSparse matrices (size 100k–2M) on which
// the paper compares the s-step solvers, each mapped to a generator that
// reproduces its size class, sparsity class, and difficulty class (proxied
// by the paper's standard-PCG iteration count). See DESIGN.md,
// "Substitutions", for why this preserves the experiments' meaning.
//
// Every problem also records the paper's measured iteration counts
// (monomial/Chebyshev per solver; 0 = the paper's "−", no convergence) so
// the experiment reports can print paper-vs-measured side by side.
package suite

import (
	"math"
	"sort"

	"spcg/internal/sparse"
)

// PaperIters holds the paper's Table 2 iteration counts for one matrix.
// Zero means the paper reports "−" (diverged/stagnated/over 12000).
type PaperIters struct {
	PCG                   int
	SPCGMon, SPCGCheb     int
	CAPCGMon, CAPCGCheb   int
	CAPCG3Mon, CAPCG3Cheb int
}

// Problem is one row of the suite.
type Problem struct {
	// Name is the SuiteSparse matrix name this problem stands in for.
	Name string
	// PaperRows and PaperNNZ are the original matrix's dimensions.
	PaperRows, PaperNNZ int
	// Paper holds the paper's Table 2 results.
	Paper PaperIters
	// Class names the generator family used for the stand-in.
	Class string
	// contrast is the difficulty dial passed to the generator.
	contrast float64
	// shift is added to the diagonal after generation: it emulates
	// mass-matrix-dominated problems (the thermomech class), whose paper
	// iteration counts are nearly size-independent.
	shift float64
	// scaling is the log10 contrast of a symmetric diagonal scaling applied
	// to a graph-class stand-in (scaleSym). A grid Laplacian plus a uniform
	// ground conductance has the constant vector as an eigenvector, and the
	// paper's right-hand side A·(1/√n) is then one too: PCG under any
	// polynomial preconditioner converges in a single iteration. The scaling
	// removes that eigenpair.
	scaling float64
	// seed makes the stand-in deterministic.
	seed int64
}

// Build generates the stand-in matrix at 1/scale of the paper size
// (scale 1 = full size). Row counts are rounded to the generator's grid.
func (p Problem) Build(scale int) *sparse.CSR {
	if scale < 1 {
		scale = 1
	}
	rows := p.PaperRows / scale
	if rows < 400 {
		rows = 400
	}
	a := p.build(rows)
	if p.shift > 0 {
		a.AddDiag(p.shift)
	}
	return a
}

func (p Problem) build(rows int) *sparse.CSR {
	switch p.Class {
	case "fem2d":
		nx := int(math.Round(math.Sqrt(float64(rows))))
		return sparse.VarCoeff2D(nx, nx, p.contrast, p.seed)
	case "fem3d":
		nx := int(math.Round(math.Cbrt(float64(rows))))
		return sparse.VarCoeff3D(nx, nx, nx, p.contrast, p.seed)
	case "fem3d27":
		nx := int(math.Round(math.Cbrt(float64(rows))))
		return scaleSym(sparse.Poisson3D27(nx, nx, nx), p.contrast, p.seed)
	case "poisson3d":
		nx := int(math.Round(math.Cbrt(float64(rows))))
		return scaleSym(sparse.Poisson3D(nx, nx, nx), p.contrast, p.seed)
	case "graph":
		// Circuit matrices are near-planar: grid Laplacian + shortcuts, not
		// an expander (expanders' spectral gap would make them trivially easy).
		nx := int(math.Round(math.Sqrt(float64(rows))))
		return scaleSym(sparse.CircuitLaplacian(nx, nx, rows/20, math.Pow(10, -p.contrast), p.seed), p.scaling, p.seed)
	case "aniso":
		nx := int(math.Round(math.Sqrt(float64(rows))))
		return sparse.Anisotropic2D(nx, nx, math.Pow(10, -p.contrast))
	default:
		panic("suite: unknown class " + p.Class)
	}
}

// scaleSym returns D^½·A·D^½ with lognormal diagonal D of the given log10
// contrast: an SPD-preserving difficulty dial for stencil matrices, standing
// in for the coefficient jumps of the FEM originals. Deterministic in seed.
func scaleSym(a *sparse.CSR, contrast float64, seed int64) *sparse.CSR {
	if contrast == 0 {
		return a
	}
	n := a.Dim()
	d := make([]float64, n)
	state := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for i := range d {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		u := float64(state>>11) / (1 << 53) // uniform [0,1)
		d[i] = math.Pow(10, (u-0.5)*contrast/2)
	}
	out := &sparse.CSR{
		N:      n,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int(nil), a.ColIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
	for i := 0; i < n; i++ {
		for k := out.RowPtr[i]; k < out.RowPtr[i+1]; k++ {
			out.Val[k] *= d[i] * d[out.ColIdx[k]]
		}
	}
	return out
}

// All returns the 40 problems in the paper's Table 2 order.
func All() []Problem {
	return []Problem{
		{Name: "2cubes_sphere", PaperRows: 101492, PaperNNZ: 1647264, Class: "fem3d", contrast: 1.0, shift: 1.00, seed: 101, Paper: PaperIters{PCG: 22, SPCGMon: 0, SPCGCheb: 30, CAPCGMon: 30, CAPCGCheb: 30, CAPCG3Mon: 30, CAPCG3Cheb: 30}},
		{Name: "thermomech_TC", PaperRows: 102158, PaperNNZ: 711558, Class: "fem2d", contrast: 0.3, shift: 3.00, seed: 102, Paper: PaperIters{PCG: 11, SPCGMon: 30, SPCGCheb: 20, CAPCGMon: 30, CAPCGCheb: 20, CAPCG3Mon: 0, CAPCG3Cheb: 20}},
		{Name: "shipsec8", PaperRows: 114919, PaperNNZ: 3303553, Class: "fem3d27", contrast: 5.0, seed: 103, Paper: PaperIters{PCG: 1666, SPCGMon: 0, SPCGCheb: 0, CAPCGMon: 2150, CAPCGCheb: 1960, CAPCG3Mon: 0, CAPCG3Cheb: 0}},
		{Name: "ship_003", PaperRows: 121728, PaperNNZ: 3777036, Class: "fem3d27", contrast: 4.6, seed: 104, Paper: PaperIters{PCG: 1584, SPCGMon: 0, SPCGCheb: 1590, CAPCGMon: 4590, CAPCGCheb: 1590, CAPCG3Mon: 0, CAPCG3Cheb: 1590}},
		{Name: "cfd2", PaperRows: 123440, PaperNNZ: 3085406, Class: "fem2d", contrast: 4.6, seed: 105, Paper: PaperIters{PCG: 1731, SPCGMon: 0, SPCGCheb: 1750, CAPCGMon: 1770, CAPCGCheb: 1750, CAPCG3Mon: 0, CAPCG3Cheb: 1750}},
		{Name: "boneS01", PaperRows: 127224, PaperNNZ: 5516602, Class: "fem3d27", contrast: 4.0, seed: 106, Paper: PaperIters{PCG: 787, SPCGMon: 0, SPCGCheb: 790, CAPCGMon: 1750, CAPCGCheb: 790, CAPCG3Mon: 0, CAPCG3Cheb: 790}},
		{Name: "shipsec1", PaperRows: 140874, PaperNNZ: 3568176, Class: "fem3d27", contrast: 4.2, seed: 107, Paper: PaperIters{PCG: 909, SPCGMon: 0, SPCGCheb: 910, CAPCGMon: 910, CAPCGCheb: 910, CAPCG3Mon: 0, CAPCG3Cheb: 910}},
		{Name: "bmw7st_1", PaperRows: 141347, PaperNNZ: 7318399, Class: "fem3d27", contrast: 6.0, seed: 108, Paper: PaperIters{PCG: 7243, SPCGMon: 0, SPCGCheb: 0, CAPCGMon: 0, CAPCGCheb: 7260, CAPCG3Mon: 0, CAPCG3Cheb: 7280}},
		{Name: "Dubcova3", PaperRows: 146689, PaperNNZ: 3636643, Class: "fem2d", contrast: 1.0, shift: 0.20, seed: 109, Paper: PaperIters{PCG: 73, SPCGMon: 0, SPCGCheb: 80, CAPCGMon: 130, CAPCGCheb: 80, CAPCG3Mon: 170, CAPCG3Cheb: 80}},
		{Name: "bmwcra_1", PaperRows: 148770, PaperNNZ: 10641602, Class: "fem3d27", contrast: 5.6, seed: 110, Paper: PaperIters{PCG: 2183, SPCGMon: 0, SPCGCheb: 0, CAPCGMon: 0, CAPCGCheb: 7890, CAPCG3Mon: 0, CAPCG3Cheb: 0}},
		{Name: "G2_circuit", PaperRows: 150102, PaperNNZ: 726674, Class: "graph", contrast: 3.0, scaling: 2.0, seed: 111, Paper: PaperIters{PCG: 506, SPCGMon: 0, SPCGCheb: 510, CAPCGMon: 0, CAPCGCheb: 510, CAPCG3Mon: 0, CAPCG3Cheb: 510}},
		{Name: "shipsec5", PaperRows: 179860, PaperNNZ: 4598604, Class: "fem3d27", contrast: 4.1, seed: 112, Paper: PaperIters{PCG: 751, SPCGMon: 0, SPCGCheb: 760, CAPCGMon: 750, CAPCGCheb: 760, CAPCG3Mon: 0, CAPCG3Cheb: 760}},
		{Name: "thermomech_dM", PaperRows: 204316, PaperNNZ: 1423116, Class: "fem2d", contrast: 0.3, shift: 3.00, seed: 113, Paper: PaperIters{PCG: 11, SPCGMon: 0, SPCGCheb: 20, CAPCGMon: 250, CAPCGCheb: 20, CAPCG3Mon: 0, CAPCG3Cheb: 20}},
		{Name: "pwtk", PaperRows: 217918, PaperNNZ: 11524432, Class: "fem3d27", contrast: 6.4, seed: 114, Paper: PaperIters{PCG: 7377}},
		{Name: "hood", PaperRows: 220542, PaperNNZ: 9895422, Class: "fem3d27", contrast: 4.7, seed: 115, Paper: PaperIters{PCG: 1515, SPCGMon: 0, SPCGCheb: 1520, CAPCGMon: 1840, CAPCGCheb: 1520, CAPCG3Mon: 0, CAPCG3Cheb: 1520}},
		{Name: "offshore", PaperRows: 259789, PaperNNZ: 4242673, Class: "fem3d", contrast: 2.0, shift: 0.05, seed: 116, Paper: PaperIters{PCG: 178, SPCGMon: 0, SPCGCheb: 180, CAPCGMon: 210, CAPCGCheb: 180, CAPCG3Mon: 0, CAPCG3Cheb: 180}},
		{Name: "af_0_k101", PaperRows: 503625, PaperNNZ: 17550675, Class: "fem3d27", contrast: 6.2, seed: 117, Paper: PaperIters{PCG: 8891, SPCGMon: 0, SPCGCheb: 0, CAPCGMon: 11190, CAPCGCheb: 8960, CAPCG3Mon: 0, CAPCG3Cheb: 8960}},
		{Name: "af_1_k101", PaperRows: 503625, PaperNNZ: 17550675, Class: "fem3d27", contrast: 6.1, seed: 118, Paper: PaperIters{PCG: 8359, SPCGMon: 0, SPCGCheb: 0, CAPCGMon: 0, CAPCGCheb: 8360, CAPCG3Mon: 0, CAPCG3Cheb: 8360}},
		{Name: "af_2_k101", PaperRows: 503625, PaperNNZ: 17550675, Class: "fem3d27", contrast: 6.3, seed: 119, Paper: PaperIters{PCG: 9956, SPCGMon: 0, SPCGCheb: 0, CAPCGMon: 0, CAPCGCheb: 10000}},
		{Name: "af_3_k101", PaperRows: 503625, PaperNNZ: 17550675, Class: "fem3d27", contrast: 6.05, seed: 120, Paper: PaperIters{PCG: 8076, SPCGMon: 0, SPCGCheb: 0, CAPCGMon: 0, CAPCGCheb: 8110}},
		{Name: "af_4_k101", PaperRows: 503625, PaperNNZ: 17550675, Class: "fem3d27", contrast: 6.25, seed: 121, Paper: PaperIters{PCG: 9881, SPCGMon: 0, SPCGCheb: 0, CAPCGMon: 11390, CAPCGCheb: 9890, CAPCG3Mon: 0, CAPCG3Cheb: 9890}},
		{Name: "af_5_k101", PaperRows: 503625, PaperNNZ: 17550675, Class: "fem3d27", contrast: 6.15, seed: 122, Paper: PaperIters{PCG: 9467, SPCGMon: 0, SPCGCheb: 0, CAPCGMon: 0, CAPCGCheb: 9470, CAPCG3Mon: 0, CAPCG3Cheb: 9470}},
		{Name: "af_shell3", PaperRows: 504855, PaperNNZ: 17562051, Class: "fem3d27", contrast: 4.3, seed: 123, Paper: PaperIters{PCG: 993, SPCGMon: 0, SPCGCheb: 0, CAPCGMon: 1440, CAPCGCheb: 1000}},
		{Name: "af_shell4", PaperRows: 504855, PaperNNZ: 17562051, Class: "fem3d27", contrast: 4.3, seed: 124, Paper: PaperIters{PCG: 993, SPCGMon: 0, SPCGCheb: 0, CAPCGMon: 1440, CAPCGCheb: 1000}},
		{Name: "af_shell7", PaperRows: 504855, PaperNNZ: 17579155, Class: "fem3d27", contrast: 4.3, seed: 125, Paper: PaperIters{PCG: 991, SPCGMon: 0, SPCGCheb: 0, CAPCGMon: 1650, CAPCGCheb: 1000}},
		{Name: "af_shell8", PaperRows: 504855, PaperNNZ: 17579155, Class: "fem3d27", contrast: 4.3, seed: 126, Paper: PaperIters{PCG: 991, SPCGMon: 0, SPCGCheb: 0, CAPCGMon: 1650, CAPCGCheb: 1000}},
		{Name: "parabolic_fem", PaperRows: 525825, PaperNNZ: 3674625, Class: "fem2d", contrast: 3.2, seed: 127, Paper: PaperIters{PCG: 540, SPCGMon: 0, SPCGCheb: 540, CAPCGMon: 660, CAPCGCheb: 540}},
		{Name: "Fault_639", PaperRows: 638802, PaperNNZ: 27245944, Class: "fem3d27", contrast: 6.6, seed: 128, Paper: PaperIters{PCG: 5414}},
		{Name: "apache2", PaperRows: 715176, PaperNNZ: 4817870, Class: "poisson3d", contrast: 4.6, seed: 129, Paper: PaperIters{PCG: 1554, SPCGMon: 0, SPCGCheb: 1560, CAPCGMon: 0, CAPCGCheb: 1560}},
		{Name: "Emilia_923", PaperRows: 923136, PaperNNZ: 40373538, Class: "fem3d27", contrast: 5.9, seed: 130, Paper: PaperIters{PCG: 4564, SPCGMon: 0, SPCGCheb: 0, CAPCGMon: 0, CAPCGCheb: 5200}},
		{Name: "audikw_1", PaperRows: 943695, PaperNNZ: 77651847, Class: "fem3d27", contrast: 5.3, seed: 131, Paper: PaperIters{PCG: 2520, SPCGMon: 0, SPCGCheb: 2520, CAPCGMon: 4040, CAPCGCheb: 2520, CAPCG3Mon: 0, CAPCG3Cheb: 2520}},
		{Name: "ldoor", PaperRows: 952203, PaperNNZ: 42493817, Class: "fem3d27", contrast: 5.4, seed: 132, Paper: PaperIters{PCG: 2764, SPCGMon: 0, SPCGCheb: 2770, CAPCGMon: 0, CAPCGCheb: 2770, CAPCG3Mon: 0, CAPCG3Cheb: 2770}},
		{Name: "bone010", PaperRows: 986703, PaperNNZ: 47851783, Class: "fem3d27", contrast: 6.5, seed: 133, Paper: PaperIters{PCG: 4308}},
		{Name: "ecology2", PaperRows: 999999, PaperNNZ: 4995991, Class: "fem2d", contrast: 4.4, seed: 134, Paper: PaperIters{PCG: 2345, SPCGMon: 0, SPCGCheb: 2350, CAPCGMon: 0, CAPCGCheb: 2350}},
		{Name: "thermal2", PaperRows: 1228045, PaperNNZ: 8580313, Class: "fem2d", contrast: 3.8, seed: 135, Paper: PaperIters{PCG: 1674, SPCGMon: 0, SPCGCheb: 0, CAPCGMon: 7960, CAPCGCheb: 1680}},
		{Name: "Serena", PaperRows: 1391349, PaperNNZ: 64131971, Class: "fem3d27", contrast: 6.7, seed: 136, Paper: PaperIters{PCG: 570}},
		{Name: "Geo_1438", PaperRows: 1437960, PaperNNZ: 60236322, Class: "fem3d27", contrast: 2.5, seed: 137, Paper: PaperIters{PCG: 545, SPCGMon: 0, SPCGCheb: 550, CAPCGMon: 790, CAPCGCheb: 550, CAPCG3Mon: 0, CAPCG3Cheb: 550}},
		{Name: "Hook_1498", PaperRows: 1498023, PaperNNZ: 59374451, Class: "fem3d27", contrast: 5.1, seed: 138, Paper: PaperIters{PCG: 1817, SPCGMon: 0, SPCGCheb: 0, CAPCGMon: 7410, CAPCGCheb: 2610}},
		{Name: "Flan_1565", PaperRows: 1564794, PaperNNZ: 114165372, Class: "fem3d27", contrast: 6.8, seed: 139, Paper: PaperIters{PCG: 4469}},
		{Name: "G3_circuit", PaperRows: 1585478, PaperNNZ: 7660826, Class: "graph", contrast: 3.2, seed: 140, Paper: PaperIters{PCG: 628, SPCGMon: 0, SPCGCheb: 630, CAPCGMon: 0, CAPCGCheb: 630, CAPCG3Mon: 0, CAPCG3Cheb: 630}},
	}
}

// ByName returns the named problem.
func ByName(name string) (Problem, bool) {
	for _, p := range All() {
		if p.Name == name {
			return p, true
		}
	}
	return Problem{}, false
}

// Table3Names lists the seven matrices of the paper's Table 3: the largest
// Table 2 matrices for which at least two s-step methods converged with the
// Chebyshev basis.
func Table3Names() []string {
	return []string{"parabolic_fem", "apache2", "audikw_1", "ldoor", "ecology2", "Geo_1438", "G3_circuit"}
}

// Table3 returns those problems in paper order.
func Table3() []Problem {
	var out []Problem
	for _, name := range Table3Names() {
		p, ok := ByName(name)
		if !ok {
			panic("suite: Table 3 references unknown problem " + name)
		}
		out = append(out, p)
	}
	return out
}

// SortedBySize returns all problems ordered by paper size ascending
// (Table 2 is printed in this order).
func SortedBySize() []Problem {
	ps := All()
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].PaperRows < ps[j].PaperRows })
	return ps
}
