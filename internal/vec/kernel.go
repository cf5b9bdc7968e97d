package vec

// The microkernel seam. Every n-length inner loop of the package — Dot, the
// Gram tile, the combineSpan column groups and the BLAS1 sweeps — is one of
// the functions declared twice below the public API: a pure-Go reference
// (the …Go functions in this file) and, on amd64, an AVX2 twin in
// kernel_amd64.s that kernel_amd64.go selects once at start-up. The
// `purego` build tag, or any other architecture, leaves only the reference.
//
// The Go reference defines the bits. An AVX2 kernel computes, lane for lane,
// the same IEEE operations in the same order:
//
//   - elementwise kernels evaluate the reference expression on four rows at a
//     time with VMULPD and VADDPD/VSUBPD only — never FMA, which would skip
//     the rounding of the product (the Go compiler does not fuse on amd64 at
//     the default GOAMD64=v1 either);
//   - reductions keep one ymm accumulator per inner product holding exactly
//     dotGo's s0..s3 (lane = index mod 4); the rows past the last multiple of
//     four go into lane 0 and the lanes combine as (s0+s1)+(s2+s3), which
//     reduceLanes does in Go for every kernel alike.
//
// The assembly therefore only ever sees a positive multiple of four rows;
// the remainder runs through the reference. NaN payloads are outside the
// contract (which NaN an operation with two NaN operands returns depends on
// operand order, which the compiler is free to choose): a NaN result is a
// NaN on both paths, everything else is bit-identical.

// KernelImpl names the microkernel implementation selected for this process:
// "avx2" or "go".
func KernelImpl() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// dotGo is the reference inner product: four accumulators by index mod 4,
// the tail into s0, combined (s0+s1)+(s2+s3). len(b) ≥ len(a).
func dotGo(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// reduceLanes finishes an inner product whose first multiple-of-four rows a
// vector kernel accumulated into lanes: a and b are the remaining rows.
func reduceLanes(lanes []float64, a, b []float64) float64 {
	b = b[:len(a)]
	s0 := lanes[0]
	for i, v := range a {
		s0 += v * b[i]
	}
	return (s0 + lanes[1]) + (lanes[2] + lanes[3])
}

// gramTileGo adds X[t:te]ᵀ·Y[t:te] into the len(x)×len(y) row-major acc: one
// dotGo per entry, each added to its entry once per tile.
func gramTileGo(acc []float64, x, y [][]float64, t, te int) {
	sb := len(y)
	for i, xc := range x {
		xi := xc[t:te]
		row := acc[i*sb : (i+1)*sb]
		for j, yc := range y {
			row[j] += dotGo(xi, yc[t:te])
		}
	}
}

// axpyGo computes y += alpha·x. len(y) ≥ len(x).
func axpyGo(alpha float64, x, y []float64) {
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// xpayGo computes dst = x + alpha·y. dst may alias x or y.
func xpayGo(dst, x []float64, alpha float64, y []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = x[i] + alpha*y[i]
	}
}

// subGo computes dst = a − b. dst may alias a or b.
func subGo(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// threeTermGo computes dst = rho·(x − gamma·y) + omr·w.
func threeTermGo(dst []float64, rho float64, x []float64, gamma float64, y []float64, omr float64, w []float64) {
	x, y, w = x[:len(dst)], y[:len(dst)], w[:len(dst)]
	for i := range dst {
		dst[i] = rho*(x[i]-gamma*y[i]) + omr*w[i]
	}
}

// combineInit2Go computes d = c0·x0 + c1·x1.
func combineInit2Go(d, x0, x1 []float64, c0, c1 float64) {
	x0, x1 = x0[:len(d)], x1[:len(d)]
	for r := range d {
		d[r] = c0*x0[r] + c1*x1[r]
	}
}

// combine2Go computes d += c0·x0 + c1·x1.
func combine2Go(d, x0, x1 []float64, c0, c1 float64) {
	x0, x1 = x0[:len(d)], x1[:len(d)]
	for r := range d {
		d[r] += c0*x0[r] + c1*x1[r]
	}
}

// combine3Go computes d += c0·x0 + c1·x1 + c2·x2.
func combine3Go(d, x0, x1, x2 []float64, c0, c1, c2 float64) {
	x0, x1, x2 = x0[:len(d)], x1[:len(d)], x2[:len(d)]
	for r := range d {
		d[r] += c0*x0[r] + c1*x1[r] + c2*x2[r]
	}
}

// combine4Go computes d += c0·x0 + c1·x1 + c2·x2 + c3·x3, the four-column
// group of the fused combines.
func combine4Go(d, x0, x1, x2, x3 []float64, c0, c1, c2, c3 float64) {
	x0, x1, x2, x3 = x0[:len(d)], x1[:len(d)], x2[:len(d)], x3[:len(d)]
	for r := range d {
		d[r] += c0*x0[r] + c1*x1[r] + c2*x2[r] + c3*x3[r]
	}
}
