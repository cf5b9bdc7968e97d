package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"spcg/internal/pool"
	"spcg/internal/vec"
)

// TestMulBlockParColumnExact pins the batched SpMV contract CA-PCG's paired
// chains and BatchPCG rely on: every column of MulBlockPar must be
// bitwise identical to a per-column sequential MulVec, for column counts
// below, at and above the pool's worker count and the four-column group
// size, on a matrix large enough to take the parallel path.
func TestMulBlockParColumnExact(t *testing.T) {
	a := Poisson2D(96, 96) // nnz ≈ 45k > parSpMVThreshold
	n := a.Dim()
	rng := rand.New(rand.NewSource(42))
	for _, s := range []int{1, 2, 3, 8, 17} {
		x := vec.NewBlock(n, s)
		for j := 0; j < s; j++ {
			col := x.Col(j)
			for i := range col {
				col[i] = rng.NormFloat64()
			}
		}
		got := vec.NewBlock(n, s)
		a.MulBlockPar(got, x)
		want := make([]float64, n)
		for j := 0; j < s; j++ {
			a.MulVec(want, x.Col(j))
			for i := 0; i < n; i++ {
				if got.Col(j)[i] != want[i] {
					t.Fatalf("s=%d: column %d row %d: MulBlockPar %v != MulVec %v",
						s, j, i, got.Col(j)[i], want[i])
				}
			}
		}
	}
}

// TestMulVecParMatchesMulVec: the pool-dispatched SpMV partitions rows only,
// so it must be bitwise identical to the sequential kernel.
func TestMulVecParMatchesMulVec(t *testing.T) {
	a := VarCoeff2D(90, 90, 3, 11)
	n := a.Dim()
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(3*i + 1))
	}
	seq := make([]float64, n)
	par := make([]float64, n)
	a.MulVec(seq, x)
	a.MulVecPar(par, x)
	for i := range seq {
		if par[i] != seq[i] {
			t.Fatalf("row %d: MulVecPar %v != MulVec %v", i, par[i], seq[i])
		}
	}
}

// sameBits reports whether two results are the same float64 bit for bit, or
// both NaN (NaN payloads are outside the kernels' contract).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestFusedBasisStepParMatchesUnfused checks the fused
// SpMV + three-term + diagonal-apply kernel, bit for bit, against the three
// separate sweeps it replaces (the matrix powers kernel's unfused path) — with
// the μ term, without sPrev and uNext, and at μ = 0 with sPrev present (the
// monomial basis), where sPrev's ±Inf entries must turn into NaN and its
// negative entries into −0 terms on both paths alike.
func TestFusedBasisStepParMatchesUnfused(t *testing.T) {
	a := Poisson2D(80, 80)
	n := a.Dim()
	rng := rand.New(rand.NewSource(5))
	u := make([]float64, n)
	sCur := make([]float64, n)
	sPrev := make([]float64, n)
	dinv := make([]float64, n)
	for i := 0; i < n; i++ {
		u[i] = rng.NormFloat64()
		sCur[i] = rng.NormFloat64()
		sPrev[i] = rng.NormFloat64()
		dinv[i] = 0.1 + rng.Float64()
	}
	// Zero rows of A·u next to zero sCur entries: the μ·sPrev term decides
	// the sign of the zero these rows end with.
	for i := 2*80 + 7; i < 2*80+12; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			u[a.ColIdx[k]] = 0
		}
	}
	for i := 2*80 + 7; i < 2*80+12; i++ {
		sCur[i] = 0
	}
	monoPrev := append([]float64(nil), sPrev...)
	monoPrev[3], monoPrev[700], monoPrev[n-1] = math.Inf(1), math.Inf(-1), math.NaN()

	z := make([]float64, n)
	a.MulVec(z, u)
	for _, c := range []struct {
		name               string
		theta, mu, gamma   float64
		sPrev, dinv, uNext []float64
	}{
		{"three-term", 1.7, -0.4, 2.3, sPrev, dinv, make([]float64, n)},
		{"first step, no uNext", 1.7, 0, 2.3, nil, dinv, nil},
		{"mu = 0 with sPrev", 0, 0, -1, monoPrev, dinv, make([]float64, n)},
	} {
		wantS, wantU := make([]float64, n), make([]float64, n)
		vec.Threeterm(wantS, z, c.theta, sCur, c.mu, c.sPrev, c.gamma)
		vec.HadamardInto(wantU, dinv, wantS)
		gotS := make([]float64, n)
		a.FusedBasisStepPar(gotS, u, sCur, c.sPrev, c.theta, c.mu, c.gamma, dinv, c.uNext)
		for i := 0; i < n; i++ {
			if !sameBits(gotS[i], wantS[i]) {
				t.Fatalf("%s: sNext[%d]: fused %v vs unfused %v", c.name, i, gotS[i], wantS[i])
			}
			if c.uNext != nil && !sameBits(c.uNext[i], wantU[i]) {
				t.Fatalf("%s: uNext[%d]: fused %v vs unfused %v", c.name, i, c.uNext[i], wantU[i])
			}
		}
	}
}

// TestBalancedRangesCached: repeated pool kernels on one matrix must reuse
// the cached partition rather than recomputing the O(n) split per call.
func TestBalancedRangesCached(t *testing.T) {
	a := Poisson2D(64, 64)
	b1 := a.balancedRanges(4)
	b2 := a.balancedRanges(4)
	if &b1[0] != &b2[0] {
		t.Fatal("partition not cached for repeated worker count")
	}
	b3 := a.balancedRanges(7)
	if len(b3) != 8 {
		t.Fatalf("unexpected bounds length %d", len(b3))
	}
	if again := a.balancedRanges(4); &again[0] != &b1[0] {
		t.Fatal("cache evicted an entry while under capacity")
	}
}

// kernelClasses is one matrix of every gen.go class, each large enough for the
// pooled path (nnz ≥ parSpMVThreshold), plus the two shapes generators never
// produce: rows with no stored entry at all, and a matrix small enough that
// the kernels stay inline.
func kernelClasses() map[string]*CSR {
	spectrum := make([]float64, 400)
	for i := range spectrum {
		spectrum[i] = 1 + float64(i)
	}
	// Every third row empty, the rest a shifted tridiagonal pattern; the
	// kernels never look at symmetry.
	n := 18000
	holes := &CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		if i%3 != 1 {
			for _, j := range []int{i - 2, i, i + 5} {
				if j >= 0 && j < n {
					holes.ColIdx = append(holes.ColIdx, j)
					holes.Val = append(holes.Val, 1+float64((i+j)%7)/3)
				}
			}
		}
		holes.RowPtr[i+1] = len(holes.Val)
	}
	return map[string]*CSR{
		"poisson1d":   Poisson1D(12000),
		"poisson2d":   Poisson2D(96, 96),
		"poisson3d":   Poisson3D(18, 18, 18),
		"poisson3d27": Poisson3D27(12, 12, 12),
		"aniso2d":     Anisotropic2D(90, 90, 1e-2),
		"varcoeff2d":  VarCoeff2D(90, 90, 3, 11),
		"varcoeff3d":  VarCoeff3D(18, 18, 18, 2, 5),
		"randgraph":   RandomGraphLaplacian(5000, 6, 0.5, 2),
		"hubgraph":    HubGraphLaplacian(4096, 4, 64, 200, 0.5, 3),
		"circuit":     CircuitLaplacian(90, 90, 400, 0.1, 7),
		"spectrum":    SPDWithSpectrum(spectrum, 4000, 9),
		"emptyrows":   holes,
		"inline":      Poisson2D(20, 20),
	}
}

// TestMulBlockParEveryColumnIsMulVec is the multi-vector kernel's contract:
// for every matrix class, every column count around the four-accumulator
// group size and every pool width, each column of MulBlockPar is MulVec on
// that column bit for bit.
func TestMulBlockParEveryColumnIsMulVec(t *testing.T) {
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(1))
	rng := rand.New(rand.NewSource(7))
	for name, a := range kernelClasses() {
		if name != "inline" && a.NNZ() < parSpMVThreshold {
			t.Fatalf("%s: nnz %d stays inline; grow it", name, a.NNZ())
		}
		n := a.Dim()
		for _, k := range []int{1, 2, 3, 4, 5, 8} {
			x, got := vec.NewBlock(n, k), vec.NewBlock(n, k)
			for j := 0; j < k; j++ {
				for i := range x.Col(j) {
					x.Col(j)[i] = rng.NormFloat64()
				}
			}
			want := vec.NewBlock(n, k)
			for j := 0; j < k; j++ {
				a.MulVec(want.Col(j), x.Col(j))
			}
			for _, workers := range []int{1, 2, 4} {
				pool.SetDefaultWorkers(workers)
				for j := 0; j < k; j++ {
					for i := range got.Col(j) {
						got.Col(j)[i] = math.NaN()
					}
				}
				a.MulBlockPar(got, x)
				for j := 0; j < k; j++ {
					for i, w := range want.Col(j) {
						if math.Float64bits(got.Col(j)[i]) != math.Float64bits(w) {
							t.Fatalf("%s k=%d workers=%d: column %d row %d: %v, MulVec %v",
								name, k, workers, j, i, got.Col(j)[i], w)
						}
					}
				}
			}
		}
	}
}

// TestMulBlockParRejectsBadOperands: a column-count or dimension mismatch and
// a destination column that is also an operand column panic instead of
// producing a silently wrong product.
func TestMulBlockParRejectsBadOperands(t *testing.T) {
	a := Poisson2D(8, 8)
	n := a.Dim()
	shared := make([]float64, n)
	cases := map[string][2]*vec.Block{
		"column count": {vec.NewBlock(n, 2), vec.NewBlock(n, 3)},
		"dst rows":     {vec.NewBlock(n-1, 2), vec.NewBlock(n, 2)},
		"x rows":       {vec.NewBlock(n, 2), vec.NewBlock(n+1, 2)},
		"short column": {vec.NewBlock(n, 1), {N: n, Cols: [][]float64{make([]float64, n-1)}}},
		"aliased": {
			{N: n, Cols: [][]float64{make([]float64, n), shared}},
			{N: n, Cols: [][]float64{shared, make([]float64, n)}},
		},
	}
	for name, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			a.MulBlockPar(c[0], c[1])
		}()
	}
	// Zero columns is a no-op, not an error.
	a.MulBlockPar(vec.NewBlock(n, 0), vec.NewBlock(n, 0))
}

// TestFusedBasisStepsEveryColumnIsUnfused: every column of the column-form
// basis step is, bit for bit, the three unfused sweeps on that column (SpMV,
// Threeterm, diagonal apply) — for every matrix class, one to four columns
// per pass, on one, two and four workers, with Prev and UNext present,
// absent, or present on alternate columns only.
func TestFusedBasisStepsEveryColumnIsUnfused(t *testing.T) {
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(1))
	rng := rand.New(rand.NewSource(8))
	theta, mu, gamma := 1.7, -0.4, 2.3
	const maxCols = 4
	always := func(int) bool { return true }
	never := func(int) bool { return false }
	for name, a := range kernelClasses() {
		n := a.Dim()
		dinv := make([]float64, n)
		for i := range dinv {
			dinv[i] = 0.1 + rng.Float64()
		}
		// wantS[j][p], wantU[j][p]: column j unfused, p = 1 with its Prev.
		var u, cur, prev [maxCols][]float64
		var wantS, wantU [maxCols][2][]float64
		z := make([]float64, n)
		for j := range maxCols {
			u[j], cur[j], prev[j] = randVec(rng, n), randVec(rng, n), randVec(rng, n)
			a.MulVec(z, u[j])
			for p := range 2 {
				var w []float64
				if p == 1 {
					w = prev[j]
				}
				wantS[j][p], wantU[j][p] = make([]float64, n), make([]float64, n)
				vec.Threeterm(wantS[j][p], z, theta, cur[j], mu, w, gamma)
				vec.HadamardInto(wantU[j][p], dinv, wantS[j][p])
			}
		}
		for _, shape := range []struct {
			name      string
			prev, out func(j int) bool
		}{
			{"all full", always, always},
			{"first step", never, always},
			{"no UNext", always, never},
			{"mixed", func(j int) bool { return j%2 == 0 }, func(j int) bool { return j%2 == 1 }},
		} {
			for k := 1; k <= maxCols; k++ {
				for _, workers := range []int{1, 2, 4} {
					pool.SetDefaultWorkers(workers)
					cols := make([]BasisCol, k)
					for j := range cols {
						cols[j] = BasisCol{Next: make([]float64, n), U: u[j], Cur: cur[j]}
						if shape.prev(j) {
							cols[j].Prev = prev[j]
						}
						if shape.out(j) {
							cols[j].UNext = make([]float64, n)
						}
					}
					a.FusedBasisSteps(cols, theta, mu, gamma, dinv)
					for j, c := range cols {
						p := 0
						if c.Prev != nil {
							p = 1
						}
						for i := range n {
							if !sameBits(c.Next[i], wantS[j][p][i]) || (c.UNext != nil && !sameBits(c.UNext[i], wantU[j][p][i])) {
								t.Fatalf("%s, %s, %d columns, %d workers: column %d row %d differs from the unfused step", name, shape.name, k, workers, j, i)
							}
						}
					}
				}
			}
		}
	}
}

// rowDot and basisRow are the per-row reference the row kernels are held to:
// row i of A·x summed from +0 over the row's stored entries in order, and one
// row of a basis step finished from that sum.
func rowDot(a *CSR, i int, x []float64) float64 {
	var s float64
	for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
		s += a.Val[k] * x[a.ColIdx[k]]
	}
	return s
}

func basisRow(i int, sum, theta, mu, inv float64, sNext, sCur, sPrev, dinv, uNext []float64) {
	v := sum - theta*sCur[i]
	if sPrev != nil {
		v -= mu * sPrev[i]
	}
	v *= inv
	sNext[i] = v
	if uNext != nil {
		uNext[i] = dinv[i] * v
	}
}

// raggedRows is n rows over n+ghosts columns, the shape of a rank's rows over
// its owned and ghost columns: rows of 1 to 9 entries, single-entry rows, a
// 150-entry hub every 400 rows, and empty rows at both ends, on both sides of
// every tile boundary and at the edges of the test's ranges.
func raggedRows(n, ghosts int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	a := &CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		length := 1 + i*i%9
		switch {
		case i == 0 || i == n-1 || i%blockRowTile == 0 || i%blockRowTile == blockRowTile-1 || i == 100 || i == 699:
			length = 0
		case i%400 == 200:
			length = 150
		case i%7 == 3:
			length = 1
		}
		row := map[int]bool{}
		for len(row) < length {
			row[rng.Intn(n+ghosts)] = true
		}
		start := len(a.ColIdx)
		for c := range row {
			a.ColIdx = append(a.ColIdx, c)
		}
		sort.Ints(a.ColIdx[start:])
		for range row {
			a.Val = append(a.Val, rng.NormFloat64())
		}
		a.RowPtr[i+1] = len(a.Val)
	}
	return a
}

// TestRowKernelsMatchReference holds every CSR row kernel, bit for bit, to the
// per-row reference: the serial row forms on ranges that start and end on
// empty rows, on tile boundaries and off them, on empty ranges and with x
// longer than the rows (a rank's ghost entries), and the pooled forms on one,
// two and four workers. Rows outside a range keep what they held. The basis
// steps run with sPrev and uNext nil in every combination, at μ ≠ 0 and at
// μ = 0 with sPrev present and holding ±Inf and NaN (the monomial basis),
// with a negative γ, so that zeros come out with the sign the reference gives.
// The row walk's twin runs against the Go loop on every serial range, and on
// rowWalkEdgeCases.
func TestRowKernelsMatchReference(t *testing.T) {
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(1))
	rowWalkEdgeCases(t)
	const sentinel = -12345.5
	theta, gamma := 1.7, -2.3 // variables: 1/gamma must round as the kernels' does
	for _, m := range []struct {
		name   string
		a      *CSR
		ghosts int
	}{
		{"ragged", raggedRows(10000, 0, 1), 0},
		{"ragged with ghosts", raggedRows(10000, 41, 2), 41},
		{"hubgraph", HubGraphLaplacian(4096, 4, 64, 200, 0.5, 3), 0},
	} {
		a, n := m.a, m.a.N
		if a.NNZ() < parSpMVThreshold {
			t.Fatalf("%s: nnz %d stays inline; grow it", m.name, a.NNZ())
		}
		rng := rand.New(rand.NewSource(int64(n + m.ghosts)))
		x, sums := make([][]float64, 8), make([][]float64, 8)
		for j := range x {
			x[j], sums[j] = randVec(rng, n+m.ghosts), make([]float64, n)
			for i := range sums[j] {
				sums[j][i] = rowDot(a, i, x[j])
			}
		}
		// x[0]'s zero entries give rows whose sum is zero.
		for k := a.RowPtr[300]; k < a.RowPtr[310]; k++ {
			x[0][a.ColIdx[k]] = 0
		}
		for i := range sums[0] {
			sums[0][i] = rowDot(a, i, x[0])
		}
		sCur := [2][]float64{randVec(rng, n), randVec(rng, n)}
		dinv := randVec(rng, n)
		prev := [2][]float64{randVec(rng, n), randVec(rng, n)}
		mono := [2][]float64{append([]float64(nil), prev[0]...), append([]float64(nil), prev[1]...)}
		for j := range mono {
			mono[j][5], mono[j][n/2], mono[j][n-2] = math.Inf(1), math.Inf(-1), math.NaN()
		}
		steps := []struct {
			mu   float64
			prev [2][]float64
		}{{-0.4, prev}, {0, mono}}
		// wantS[m][p][j], wantU[m][p][j]: column j of step m, p = 1 with sPrev.
		var wantS, wantU [2][2][2][]float64
		for mi, st := range steps {
			for p := range 2 {
				for j := range 2 {
					var sPrev []float64
					if p == 1 {
						sPrev = st.prev[j]
					}
					wantS[mi][p][j], wantU[mi][p][j] = make([]float64, n), make([]float64, n)
					for i := 0; i < n; i++ {
						basisRow(i, sums[j][i], theta, st.mu, 1/gamma, wantS[mi][p][j], sCur[j], sPrev, dinv, wantU[mi][p][j])
					}
				}
			}
		}

		out := func() []float64 {
			v := make([]float64, n)
			vec.Fill(v, sentinel)
			return v
		}
		check := func(what string, got, want []float64, lo, hi int) {
			t.Helper()
			for i, g := range got {
				w := sentinel
				if i >= lo && i < hi {
					w = want[i]
				}
				if !sameBits(g, w) {
					t.Fatalf("%s, %s: row %d = %v, want %v", m.name, what, i, g, w)
				}
			}
		}
		forms := func(at string, lo, hi int, pooled bool) {
			t.Helper()
			got := out()
			if pooled {
				a.MulVecPar(got, x[0])
			} else {
				a.MulVecRows(got, x[0], lo, hi)
				checkWalk(t, m.name+" twin", a, [2][]float64{x[0], x[1]}, lo, hi)
			}
			check("MulVec, "+at, got, sums[0], lo, hi)
			for k := 1; k <= 8; k++ {
				dst := &vec.Block{N: n}
				for range k {
					dst.Cols = append(dst.Cols, out())
				}
				src := &vec.Block{N: len(x[0]), Cols: x[:k]}
				if pooled {
					a.MulBlockPar(dst, src)
				} else {
					a.MulBlockRows(dst, src, lo, hi)
				}
				for j := range k {
					check(fmt.Sprintf("MulBlock k=%d column %d, %s", k, j, at), dst.Cols[j], sums[j], lo, hi)
				}
			}
			u := [2][]float64{x[0], x[1]}
			for mi, st := range steps {
				// Bits 0 and 1: column 0 or 1 has sPrev; bits 2 and 3: uNext.
				for shape := range 16 {
					var sPrev, sNext, uNext [2][]float64
					var p [2]int
					for j := range 2 {
						if shape>>j&1 == 1 {
							sPrev[j], p[j] = st.prev[j], 1
						}
						if shape>>(2+j)&1 == 1 {
							uNext[j] = out()
						}
						sNext[j] = out()
					}
					what := fmt.Sprintf("mu=%v shape %04b, %s", st.mu, shape, at)
					finish := func(kernel string, cols int) {
						t.Helper()
						for j := range cols {
							check(fmt.Sprintf("%s sNext[%d], %s", kernel, j, what), sNext[j], wantS[mi][p[j]][j], lo, hi)
							if uNext[j] != nil {
								check(fmt.Sprintf("%s uNext[%d], %s", kernel, j, what), uNext[j], wantU[mi][p[j]][j], lo, hi)
								vec.Fill(uNext[j], sentinel)
							}
							vec.Fill(sNext[j], sentinel)
						}
					}
					cols := make([]BasisCol, 2)
					for j := range cols {
						cols[j] = BasisCol{sNext[j], u[j], sCur[j], sPrev[j], uNext[j]}
					}
					if shape&0b1010 == 0 { // column 1 bare: the single step on column 0
						if pooled {
							a.FusedBasisStepPar(sNext[0], u[0], sCur[0], sPrev[0], theta, st.mu, gamma, dinv, uNext[0])
						} else {
							a.FusedBasisStepRows(cols[:1], theta, st.mu, gamma, dinv, lo, hi)
						}
						finish("single step", 1)
					}
					if pooled {
						a.FusedBasisSteps(cols, theta, st.mu, gamma, dinv)
					} else {
						a.FusedBasisStepRows(cols, theta, st.mu, gamma, dinv, lo, hi)
					}
					finish("paired step", 2)
				}
			}
		}

		for _, r := range [][2]int{{0, n}, {1, n - 1}, {255, 257}, {256, 512}, {100, 700}, {300, 1290}, {7, 7}, {n, n}, {n - 1, n}} {
			forms(fmt.Sprintf("rows [%d, %d)", r[0], r[1]), r[0], r[1], false)
		}
		if m.ghosts == 0 {
			for _, w := range []int{1, 2, 4} {
				pool.SetDefaultWorkers(w)
				forms(fmt.Sprintf("pooled on %d workers", w), 0, n, true)
			}
		}
	}
}

// holdTeam occupies the shared pool's team with a dispatch whose own part
// blocks until the returned release is called, so that every pooled kernel
// dispatched meanwhile finds the team busy.
func holdTeam() (release func()) {
	p := pool.Default()
	entered, gate, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		p.Dispatch(p.Workers(), func(part int) {
			if part == 0 {
				close(entered)
				<-gate
			}
		})
	}()
	<-entered
	return func() { close(gate); <-done }
}

// TestPooledKernelsOnABusyTeam: a pooled kernel whose dispatch finds the team
// running another caller's job runs its parts on its own goroutine and
// returns the bits it returns on a free team. Every pooled kernel of vec and
// sparse, above the fan-out thresholds (n = 36 864 rows, nnz ≈ 183 000), at
// two and four workers; each must take the busy path at least once.
func TestPooledKernelsOnABusyTeam(t *testing.T) {
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(1))
	a := Poisson2D(192, 192)
	n := a.Dim()
	rng := rand.New(rand.NewSource(31))
	block := func(s int) *vec.Block {
		b := vec.NewBlock(n, s)
		for _, c := range b.Cols {
			for i := range c {
				c[i] = rng.NormFloat64()
			}
		}
		return b
	}
	x, y, rw, uv, vs := block(8), block(8), block(5), block(5), block(6)
	coef := make([]float64, 64)
	for i := range coef {
		coef[i] = rng.NormFloat64()
	}
	dinv := vs.Col(5)
	flat := func(b *vec.Block) []float64 {
		var out []float64
		for _, c := range b.Cols {
			out = append(out, c...)
		}
		return out
	}
	mulBlock := func(k int) func() []float64 {
		return func() []float64 {
			dst := vec.NewBlock(n, k)
			a.MulBlockPar(dst, x.View(0, k))
			return flat(dst)
		}
	}
	basisSteps := func(k int) func() []float64 {
		return func() []float64 {
			out := vec.NewBlock(n, 2*k)
			cols := make([]BasisCol, k)
			for j := range cols {
				cols[j] = BasisCol{Next: out.Col(2 * j), U: x.Col(j), Cur: y.Col(j), Prev: y.Col(j + 2), UNext: out.Col(2*j + 1)}
			}
			a.FusedBasisSteps(cols, 1.7, -0.4, 2.3, dinv)
			return flat(out)
		}
	}
	kernels := []struct {
		name string
		run  func() []float64
	}{
		{"GramFused", func() []float64 { return vec.GramFused(x, y) }},
		{"GramVecFused", func() []float64 { return vec.GramVecFused(x, y.Col(0)) }},
		{"ParDot", func() []float64 { return []float64{vec.ParDot(x.Col(0), y.Col(1))} }},
		{"AddMulFused", func() []float64 {
			dst := vec.NewBlock(n, 8)
			vec.AddMulFused(dst, y, x, coef)
			return flat(dst)
		}},
		{"CombineFused", func() []float64 {
			dst := make([]float64, n)
			x.CombineFused(dst, coef[:8])
			return dst
		}},
		{"ThreeTermSteps", func() []float64 {
			// Two steps; the second advances the first one's outputs.
			out := vec.NewBlock(n, 6)
			steps := []vec.Step{
				{X: vec.Recur{Next: out.Col(0), Cur: vs.Col(0), Prev: vs.Col(1)}, R: vec.Recur{Next: out.Col(1), Cur: vs.Col(2), Prev: vs.Col(3)},
					U: vec.Recur{Next: out.Col(2), Cur: vs.Col(4), Prev: vs.Col(5)}, D: coef[:5], Rho: 1.3, Gamma: 0.7},
				{X: vec.Recur{Next: out.Col(3), Cur: out.Col(0), Prev: vs.Col(0)}, R: vec.Recur{Next: out.Col(4), Cur: out.Col(1), Prev: vs.Col(2)},
					U: vec.Recur{Next: out.Col(5), Cur: out.Col(2), Prev: vs.Col(4)}, D: coef[5:10], Rho: 0.9, Gamma: 0.5},
			}
			vec.Pooled.ThreeTermSteps(steps, rw, uv)
			return flat(out)
		}},
		{"MulVecPar", func() []float64 {
			dst := make([]float64, n)
			a.MulVecPar(dst, x.Col(0))
			return dst
		}},
		{"MulBlockPar k=2", mulBlock(2)},
		{"MulBlockPar k=8", mulBlock(8)},
		{"FusedBasisSteps 1 column", basisSteps(1)},
		{"FusedBasisSteps 2 columns", basisSteps(2)},
	}
	for _, workers := range []int{2, 4} {
		pool.SetDefaultWorkers(workers)
		want := make([][]float64, len(kernels))
		for k, kern := range kernels {
			want[k] = kern.run()
		}
		release := holdTeam()
		got := make([][]float64, len(kernels))
		busy := make([]uint64, len(kernels))
		for k, kern := range kernels {
			before := pool.ReadStats().BusyInline
			got[k] = kern.run()
			busy[k] = pool.ReadStats().BusyInline - before
		}
		release()
		for k, kern := range kernels {
			if busy[k] == 0 {
				t.Errorf("workers=%d %s: no dispatch found the team busy", workers, kern.name)
			}
			for i := range want[k] {
				if !sameBits(got[k][i], want[k][i]) {
					t.Fatalf("workers=%d %s: entry %d is %v on a busy team, %v on a free one", workers, kern.name, i, got[k][i], want[k][i])
				}
			}
		}
	}
}
