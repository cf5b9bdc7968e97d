//go:build !purego

package vec

// useAVX2 selects the assembly once, at start-up: the CPU must have AVX2 and
// the operating system must save the ymm state.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // xmm and ymm state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// The AVX2 kernels (kernel_amd64.s). n is a positive multiple of four and
// every pointer addresses at least n float64s.

//go:noescape
func dotLanesAVX2(a, b *float64, n int, lanes *[4]float64)

// gram2x4AVX2 accumulates the 2×4 block of inner products x_i·y_j into
// lanes[4·(4i+j):][:4].
//
//go:noescape
func gram2x4AVX2(x0, x1, y0, y1, y2, y3 *float64, n int, lanes *[32]float64)

//go:noescape
func axpyAVX2(alpha float64, x, y *float64, n int)

//go:noescape
func xpayAVX2(dst, x *float64, alpha float64, y *float64, n int)

//go:noescape
func subAVX2(dst, a, b *float64, n int)

//go:noescape
func hadamardAVX2(dst, a, b *float64, n int)

//go:noescape
func threeTermAVX2(dst *float64, rho float64, x *float64, gamma float64, y *float64, omr float64, w *float64, n int)

//go:noescape
func combineInit2AVX2(d, x0, x1 *float64, c0, c1 float64, n int)

//go:noescape
func combine2AVX2(d, x0, x1 *float64, c0, c1 float64, n int)

//go:noescape
func combine3AVX2(d, x0, x1, x2 *float64, c0, c1, c2 float64, n int)

//go:noescape
func combine4AVX2(d, x0, x1, x2, x3 *float64, c0, c1, c2, c3 float64, n int)

// vecRows returns how many leading rows of an n-row operand go to the
// assembly; the reference takes the rest.
func vecRows(n int) int {
	if useAVX2 {
		return n &^ 3
	}
	return 0
}

func dot(a, b []float64) float64 {
	n := vecRows(len(a))
	if n == 0 {
		return dotGo(a, b)
	}
	b = b[:len(a)]
	var lanes [4]float64
	dotLanesAVX2(&a[0], &b[0], n, &lanes)
	return reduceLanes(lanes[:], a[n:], b[n:])
}

// gramTile register-blocks the tile's entries 2×4: each loaded value of the
// tile feeds four (x) or two (y) accumulators instead of being streamed from
// L2 once per entry. A block that overhangs the edge repeats its last row or
// column, and the duplicate results are dropped.
func gramTile(acc []float64, x, y [][]float64, t, te int) {
	n := vecRows(te - t)
	if n == 0 {
		gramTileGo(acc, x, y, t, te)
		return
	}
	sa, sb := len(x), len(y)
	var lanes [32]float64
	for i := 0; i < sa; i += 2 {
		ni := min(2, sa-i)
		xr := [2][]float64{x[i][t:te], x[i+ni-1][t:te]}
		for j := 0; j < sb; j += 4 {
			nj := min(4, sb-j)
			var yr [4][]float64
			for k := range yr {
				yr[k] = y[j+min(k, nj-1)][t:te]
			}
			gram2x4AVX2(&xr[0][0], &xr[1][0], &yr[0][0], &yr[1][0], &yr[2][0], &yr[3][0], n, &lanes)
			for bi := 0; bi < ni; bi++ {
				for bj := 0; bj < nj; bj++ {
					l := lanes[4*(4*bi+bj):][:4]
					acc[(i+bi)*sb+j+bj] += reduceLanes(l, xr[bi][n:], yr[bj][n:])
				}
			}
		}
	}
}

func axpy(alpha float64, x, y []float64) {
	y = y[:len(x)]
	n := vecRows(len(x))
	if n > 0 {
		axpyAVX2(alpha, &x[0], &y[0], n)
	}
	axpyGo(alpha, x[n:], y[n:])
}

func xpay(dst, x []float64, alpha float64, y []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	n := vecRows(len(dst))
	if n > 0 {
		xpayAVX2(&dst[0], &x[0], alpha, &y[0], n)
	}
	xpayGo(dst[n:], x[n:], alpha, y[n:])
}

func sub(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	n := vecRows(len(dst))
	if n > 0 {
		subAVX2(&dst[0], &a[0], &b[0], n)
	}
	subGo(dst[n:], a[n:], b[n:])
}

func hadamard(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	n := vecRows(len(dst))
	if n > 0 {
		hadamardAVX2(&dst[0], &a[0], &b[0], n)
	}
	hadamardGo(dst[n:], a[n:], b[n:])
}

func threeTerm(dst []float64, rho float64, x []float64, gamma float64, y []float64, omr float64, w []float64) {
	x, y, w = x[:len(dst)], y[:len(dst)], w[:len(dst)]
	n := vecRows(len(dst))
	if n > 0 {
		threeTermAVX2(&dst[0], rho, &x[0], gamma, &y[0], omr, &w[0], n)
	}
	threeTermGo(dst[n:], rho, x[n:], gamma, y[n:], omr, w[n:])
}

func combineInit2(d, x0, x1 []float64, c0, c1 float64) {
	x0, x1 = x0[:len(d)], x1[:len(d)]
	n := vecRows(len(d))
	if n > 0 {
		combineInit2AVX2(&d[0], &x0[0], &x1[0], c0, c1, n)
	}
	combineInit2Go(d[n:], x0[n:], x1[n:], c0, c1)
}

func combine2(d, x0, x1 []float64, c0, c1 float64) {
	x0, x1 = x0[:len(d)], x1[:len(d)]
	n := vecRows(len(d))
	if n > 0 {
		combine2AVX2(&d[0], &x0[0], &x1[0], c0, c1, n)
	}
	combine2Go(d[n:], x0[n:], x1[n:], c0, c1)
}

func combine3(d, x0, x1, x2 []float64, c0, c1, c2 float64) {
	x0, x1, x2 = x0[:len(d)], x1[:len(d)], x2[:len(d)]
	n := vecRows(len(d))
	if n > 0 {
		combine3AVX2(&d[0], &x0[0], &x1[0], &x2[0], c0, c1, c2, n)
	}
	combine3Go(d[n:], x0[n:], x1[n:], x2[n:], c0, c1, c2)
}

func combine4(d, x0, x1, x2, x3 []float64, c0, c1, c2, c3 float64) {
	x0, x1, x2, x3 = x0[:len(d)], x1[:len(d)], x2[:len(d)], x3[:len(d)]
	n := vecRows(len(d))
	if n > 0 {
		combine4AVX2(&d[0], &x0[0], &x1[0], &x2[0], &x3[0], c0, c1, c2, c3, n)
	}
	combine4Go(d[n:], x0[n:], x1[n:], x2[n:], x3[n:], c0, c1, c2, c3)
}
