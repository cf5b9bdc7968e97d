package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Poisson1D returns the n×n tridiagonal matrix tridiag(−1, 2, −1): the
// 1D Laplacian with Dirichlet boundaries. Eigenvalues are known in closed
// form, which the tests exploit.
func Poisson1D(n int) *CSR {
	if n < 1 {
		panic("sparse: Poisson1D needs n ≥ 1")
	}
	nnz := 3*n - 2
	a := &CSR{N: n, RowPtr: make([]int, n+1), ColIdx: make([]int, 0, nnz), Val: make([]float64, 0, nnz)}
	for i := 0; i < n; i++ {
		if i > 0 {
			a.ColIdx = append(a.ColIdx, i-1)
			a.Val = append(a.Val, -1)
		}
		a.ColIdx = append(a.ColIdx, i)
		a.Val = append(a.Val, 2)
		if i < n-1 {
			a.ColIdx = append(a.ColIdx, i+1)
			a.Val = append(a.Val, -1)
		}
		a.RowPtr[i+1] = len(a.Val)
	}
	return a
}

// Poisson2D returns the 5-point finite-difference Laplacian on an nx×ny grid
// with Dirichlet boundaries (row-major grid numbering).
func Poisson2D(nx, ny int) *CSR {
	if nx < 1 || ny < 1 {
		panic("sparse: Poisson2D needs positive grid dims")
	}
	n := nx * ny
	a := &CSR{N: n, RowPtr: make([]int, n+1), ColIdx: make([]int, 0, 5*n), Val: make([]float64, 0, 5*n)}
	idx := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := idx(x, y)
			if y > 0 {
				a.ColIdx = append(a.ColIdx, idx(x, y-1))
				a.Val = append(a.Val, -1)
			}
			if x > 0 {
				a.ColIdx = append(a.ColIdx, idx(x-1, y))
				a.Val = append(a.Val, -1)
			}
			a.ColIdx = append(a.ColIdx, i)
			a.Val = append(a.Val, 4)
			if x < nx-1 {
				a.ColIdx = append(a.ColIdx, idx(x+1, y))
				a.Val = append(a.Val, -1)
			}
			if y < ny-1 {
				a.ColIdx = append(a.ColIdx, idx(x, y+1))
				a.Val = append(a.Val, -1)
			}
			a.RowPtr[i+1] = len(a.Val)
		}
	}
	return a
}

// Poisson3D returns the 7-point Laplacian on an nx×ny×nz grid with Dirichlet
// boundaries — the synthetic strong-scaling problem of the paper's Figure 1
// (there with nx = ny = nz = 256).
func Poisson3D(nx, ny, nz int) *CSR {
	if nx < 1 || ny < 1 || nz < 1 {
		panic("sparse: Poisson3D needs positive grid dims")
	}
	n := nx * ny * nz
	a := &CSR{N: n, RowPtr: make([]int, n+1), ColIdx: make([]int, 0, 7*n), Val: make([]float64, 0, 7*n)}
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := idx(x, y, z)
				if z > 0 {
					a.ColIdx = append(a.ColIdx, idx(x, y, z-1))
					a.Val = append(a.Val, -1)
				}
				if y > 0 {
					a.ColIdx = append(a.ColIdx, idx(x, y-1, z))
					a.Val = append(a.Val, -1)
				}
				if x > 0 {
					a.ColIdx = append(a.ColIdx, idx(x-1, y, z))
					a.Val = append(a.Val, -1)
				}
				a.ColIdx = append(a.ColIdx, i)
				a.Val = append(a.Val, 6)
				if x < nx-1 {
					a.ColIdx = append(a.ColIdx, idx(x+1, y, z))
					a.Val = append(a.Val, -1)
				}
				if y < ny-1 {
					a.ColIdx = append(a.ColIdx, idx(x, y+1, z))
					a.Val = append(a.Val, -1)
				}
				if z < nz-1 {
					a.ColIdx = append(a.ColIdx, idx(x, y, z+1))
					a.Val = append(a.Val, -1)
				}
				a.RowPtr[i+1] = len(a.Val)
			}
		}
	}
	return a
}

// Poisson3D27 returns a 27-point 3D stencil (FEM-style trilinear elements on
// a brick mesh): a denser stencil emulating structural/shell matrices with
// tens of entries per row.
func Poisson3D27(nx, ny, nz int) *CSR {
	if nx < 1 || ny < 1 || nz < 1 {
		panic("sparse: Poisson3D27 needs positive grid dims")
	}
	n := nx * ny * nz
	a := &CSR{N: n, RowPtr: make([]int, n+1), ColIdx: make([]int, 0, 27*n), Val: make([]float64, 0, 27*n)}
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	// Trilinear FEM stencil weights by Chebyshev distance: center 26/3,
	// faces −4/9... use the standard 27-point Laplacian weights: center 88/26
	// variants abound; we use w = −1 for faces, −1/2 for edges, −1/4 for
	// corners and the row-sum-zero diagonal + 1 shift-free (Dirichlet
	// truncation makes boundary rows diagonally dominant).
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := idx(x, y, z)
				var diag float64
				var d int
				// The z,y,x sweep visits columns in ascending order, so each
				// row is written in final order; the diagonal's slot is
				// reserved when the sweep passes the centre and filled after.
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							if dx == 0 && dy == 0 && dz == 0 {
								d = len(a.Val)
								a.ColIdx = append(a.ColIdx, i)
								a.Val = append(a.Val, 0)
								continue
							}
							nxp, nyp, nzp := x+dx, y+dy, z+dz
							dist := abs(dx) + abs(dy) + abs(dz)
							var w float64
							switch dist {
							case 1:
								w = -1
							case 2:
								w = -0.5
							default:
								w = -0.25
							}
							diag -= w // row-sum zero for interior
							if nxp < 0 || nxp >= nx || nyp < 0 || nyp >= ny || nzp < 0 || nzp >= nz {
								continue
							}
							a.ColIdx = append(a.ColIdx, idx(nxp, nyp, nzp))
							a.Val = append(a.Val, w)
						}
					}
				}
				a.Val[d] = diag
				a.RowPtr[i+1] = len(a.Val)
			}
		}
	}
	return a
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Anisotropic2D returns a 5-point stencil for −(ε·u_xx + u_yy) on an nx×ny
// grid: small ε stretches the spectrum and slows unpreconditioned CG, a
// standard hard test case.
func Anisotropic2D(nx, ny int, eps float64) *CSR {
	if eps <= 0 {
		panic("sparse: Anisotropic2D needs eps > 0")
	}
	n := nx * ny
	a := &CSR{N: n, RowPtr: make([]int, n+1), ColIdx: make([]int, 0, 5*n), Val: make([]float64, 0, 5*n)}
	idx := func(x, y int) int { return y*nx + x }
	d := 2*eps + 2
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := idx(x, y)
			if y > 0 {
				a.ColIdx = append(a.ColIdx, idx(x, y-1))
				a.Val = append(a.Val, -1)
			}
			if x > 0 {
				a.ColIdx = append(a.ColIdx, idx(x-1, y))
				a.Val = append(a.Val, -eps)
			}
			a.ColIdx = append(a.ColIdx, i)
			a.Val = append(a.Val, d)
			if x < nx-1 {
				a.ColIdx = append(a.ColIdx, idx(x+1, y))
				a.Val = append(a.Val, -eps)
			}
			if y < ny-1 {
				a.ColIdx = append(a.ColIdx, idx(x, y+1))
				a.Val = append(a.Val, -1)
			}
			a.RowPtr[i+1] = len(a.Val)
		}
	}
	return a
}

// VarCoeff2D returns a 5-point variable-coefficient diffusion operator
// −∇·(k∇u) on an nx×ny grid where log10(k) is i.i.d. uniform in
// [−contrast/2, contrast/2] per cell and face coefficients are harmonic
// means. contrast controls the conditioning: contrast≈0 reproduces Poisson,
// contrast 4–6 emulates the hard SuiteSparse FEM matrices. Deterministic in
// seed.
func VarCoeff2D(nx, ny int, contrast float64, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	k := make([]float64, nx*ny)
	for i := range k {
		k[i] = math.Pow(10, (rng.Float64()-0.5)*contrast)
	}
	idx := func(x, y int) int { return y*nx + x }
	face := func(i, j int) float64 { // harmonic mean
		return 2 * k[i] * k[j] / (k[i] + k[j])
	}
	n := nx * ny
	a := &CSR{N: n, RowPtr: make([]int, n+1), ColIdx: make([]int, 0, 5*n), Val: make([]float64, 0, 5*n)}
	var i int
	var diag float64
	// add appends the off-diagonal entry for neighbour j, or charges a
	// Dirichlet face to the diagonal when there is none.
	add := func(ok bool, j int) {
		if !ok {
			diag += k[i]
			return
		}
		w := face(i, j)
		a.ColIdx = append(a.ColIdx, j)
		a.Val = append(a.Val, -w)
		diag += w
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i, diag = idx(x, y), 0
			// Neighbours in ascending column order, the diagonal's slot
			// reserved between x−1 and x+1 and filled after the row.
			add(y > 0, i-nx)
			add(x > 0, i-1)
			d := len(a.Val)
			a.ColIdx = append(a.ColIdx, i)
			a.Val = append(a.Val, 0)
			add(x < nx-1, i+1)
			add(y < ny-1, i+nx)
			a.Val[d] = diag
			a.RowPtr[i+1] = len(a.Val)
		}
	}
	return a
}

// HubGraphLaplacian returns L + shift·I for the Laplacian of a random graph
// (edges symmetrized) with a skewed degree distribution: every vertex gets
// baseDeg random out-edges, and every hubEvery-th vertex is a hub with hubDeg
// extra out-edges. The resulting row-length variance (hub rows are an order
// of magnitude longer than the rest) is the structure that stresses
// SELL-C-σ's σ-window sorting and padding accounting and exercises the
// format selector's irregular branch — the serve_churn benchmark workload
// serves eight of them, so the serving tier's format selection meets
// irregular rows under load. SPD via the diagonal shift; deterministic in
// seed.
func HubGraphLaplacian(n, baseDeg, hubEvery, hubDeg int, shift float64, seed int64) *CSR {
	if baseDeg < 1 || hubEvery < 1 || hubDeg < 0 || n < 2 {
		panic("sparse: HubGraphLaplacian needs n ≥ 2, baseDeg ≥ 1, hubEvery ≥ 1, hubDeg ≥ 0")
	}
	rng := rand.New(rand.NewSource(seed))
	coo := newCOOCap(n, n*(2*baseDeg+1)+2*hubDeg*((n+hubEvery-1)/hubEvery))
	deg := make([]float64, n)
	addEdges := func(i, count int) {
		for e := 0; e < count; e++ {
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
		addEdges(i, baseDeg)
		if i%hubEvery == 0 {
			addEdges(i, hubDeg)
		}
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, deg[i]+shift)
	}
	return coo.ToCSR()
}

// SPDWithSpectrum returns a sparse SPD matrix with exactly the given
// eigenvalues: diag(spectrum) conjugated by `rotations` random Givens
// rotations. Rotations introduce off-diagonal fill, so keep rotations ≲ 3n
// to preserve sparsity. Deterministic in seed.
func SPDWithSpectrum(spectrum []float64, rotations int, seed int64) *CSR {
	n := len(spectrum)
	if n < 2 {
		panic("sparse: SPDWithSpectrum needs at least 2 eigenvalues")
	}
	for _, v := range spectrum {
		if v <= 0 {
			panic(fmt.Sprintf("sparse: SPDWithSpectrum needs positive eigenvalues, got %v", v))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	// Row-map representation during rotation application.
	rows := make([]map[int]float64, n)
	for i := range rows {
		rows[i] = map[int]float64{i: spectrum[i]}
	}
	get := func(i, j int) float64 { return rows[i][j] }
	set := func(i, j int, v float64) {
		if v == 0 {
			delete(rows[i], j)
		} else {
			rows[i][j] = v
		}
	}
	for r := 0; r < rotations; r++ {
		p := rng.Intn(n)
		q := rng.Intn(n)
		if p == q {
			continue
		}
		theta := rng.Float64() * math.Pi
		c, s := math.Cos(theta), math.Sin(theta)
		// A ← GᵀAG with G the Givens rotation in plane (p,q). Because A is
		// symmetric before the rotation, the nonzero rows of columns p,q are
		// exactly the nonzero columns of rows p,q — capture them before the
		// row update mutates those rows. The touched set is iterated in
		// sorted order so the assembled matrix is identical run to run.
		cols := append(sortedCols(rows[p]), sortedCols(rows[q])...)
		cols = append(cols, p, q)
		sort.Ints(cols)
		touched := cols[:1]
		for _, j := range cols[1:] {
			if j != touched[len(touched)-1] {
				touched = append(touched, j)
			}
		}
		// Row update: rows p,q mix.
		for _, j := range touched {
			ap, aq := get(p, j), get(q, j)
			set(p, j, c*ap-s*aq)
			set(q, j, s*ap+c*aq)
		}
		// Column update: columns p,q mix.
		for _, i := range touched {
			aip, aiq := get(i, p), get(i, q)
			set(i, p, c*aip-s*aiq)
			set(i, q, s*aip+c*aiq)
		}
	}
	coo := NewCOO(n)
	for i, row := range rows {
		for _, j := range sortedCols(row) {
			coo.Add(i, j, row[j])
		}
	}
	a := coo.ToCSR()
	// Enforce exact symmetry (rotation roundoff breaks it at ~1e-16).
	return symmetrizeCSR(a)
}

// sortedCols returns the keys of a sparse-row map in ascending order. Map
// iteration order is randomized per run; every walk over a row map goes
// through this helper so generated matrices are bitwise-identical in seed.
func sortedCols(m map[int]float64) []int {
	cols := make([]int, 0, len(m))
	for j := range m { //spcglint:ignore determinism key collection is order-insensitive; sorted below
		cols = append(cols, j)
	}
	sort.Ints(cols)
	return cols
}

// symmetrizeCSR returns (A + Aᵀ)/2.
func symmetrizeCSR(a *CSR) *CSR {
	coo := NewCOO(a.N)
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			coo.Add(i, j, a.Val[k]/2)
			coo.Add(j, i, a.Val[k]/2)
		}
	}
	return coo.ToCSR()
}

// GeometricSpectrum returns n eigenvalues geometrically spaced in
// [lo, lo·cond]: the canonical difficulty dial for CG convergence tests.
func GeometricSpectrum(n int, lo, cond float64) []float64 {
	if n < 2 || lo <= 0 || cond < 1 {
		panic("sparse: GeometricSpectrum needs n ≥ 2, lo > 0, cond ≥ 1")
	}
	s := make([]float64, n)
	for i := range s {
		s[i] = lo * math.Pow(cond, float64(i)/float64(n-1))
	}
	return s
}

// VarCoeff3D returns a 7-point variable-coefficient diffusion operator on an
// nx×ny×nz grid, the 3D analogue of VarCoeff2D: per-cell log-uniform
// coefficients with the given contrast, harmonic-mean face weights, Dirichlet
// boundaries. Deterministic in seed.
func VarCoeff3D(nx, ny, nz int, contrast float64, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	n := nx * ny * nz
	k := make([]float64, n)
	for i := range k {
		k[i] = math.Pow(10, (rng.Float64()-0.5)*contrast)
	}
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	face := func(i, j int) float64 { return 2 * k[i] * k[j] / (k[i] + k[j]) }
	a := &CSR{N: n, RowPtr: make([]int, n+1), ColIdx: make([]int, 0, 7*n), Val: make([]float64, 0, 7*n)}
	var i int
	var diag float64
	add := func(ok bool, j int) { // as in VarCoeff2D
		if !ok {
			diag += k[i] // Dirichlet face
			return
		}
		w := face(i, j)
		a.ColIdx = append(a.ColIdx, j)
		a.Val = append(a.Val, -w)
		diag += w
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i, diag = idx(x, y, z), 0
				add(z > 0, i-nx*ny)
				add(y > 0, i-nx)
				add(x > 0, i-1)
				d := len(a.Val)
				a.ColIdx = append(a.ColIdx, i)
				a.Val = append(a.Val, 0)
				add(x < nx-1, i+1)
				add(y < ny-1, i+nx)
				add(z < nz-1, i+nx*ny)
				a.Val[d] = diag
				a.RowPtr[i+1] = len(a.Val)
			}
		}
	}
	return a
}

// CircuitLaplacian emulates circuit-simulation matrices (the G2/G3_circuit
// class): a 2D grid graph Laplacian — circuits are near-planar, so their
// spectra behave like grids, not expanders — plus a sprinkling of random
// long-range "component" edges and a diagonal shift (ground conductances).
// Deterministic in seed.
func CircuitLaplacian(nx, ny, shortcuts int, shift float64, seed int64) *CSR {
	if nx < 2 || ny < 2 || shift <= 0 {
		panic("sparse: CircuitLaplacian needs nx,ny ≥ 2 and shift > 0")
	}
	rng := rand.New(rand.NewSource(seed))
	n := nx * ny
	coo := newCOOCap(n, 2*((nx-1)*ny+nx*(ny-1)+shortcuts)+n)
	deg := make([]float64, n)
	idx := func(x, y int) int { return y*nx + x }
	edge := func(i, j int, w float64) {
		coo.AddSym(i, j, -w)
		deg[i] += w
		deg[j] += w
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := idx(x, y)
			if x < nx-1 {
				edge(i, idx(x+1, y), 0.5+rng.Float64())
			}
			if y < ny-1 {
				edge(i, idx(x, y+1), 0.5+rng.Float64())
			}
		}
	}
	for e := 0; e < shortcuts; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		edge(i, j, 0.1+0.4*rng.Float64())
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, deg[i]+shift)
	}
	return coo.ToCSR()
}
