package vec

import "spcg/internal/pool"

// parallelThreshold is the minimum slice length at which the parallel kernel
// variants fan out to the worker pool. A join on the hot team costs under
// 2 µs (internal/pool), but below this length a sweep is a few microseconds
// itself and the second core's share of it does not pay for the cache lines
// that move. The constant also fixes which kernels run in parts, and so the
// partial-sum order of the reductions: moving it changes bits (ROADMAP P0(a)).
const parallelThreshold = 1 << 15

// ParDot is Dot with pool parallelism for large vectors. The partial sums are
// combined in fixed chunk order so the result is deterministic for a fixed
// worker count.
func ParDot(a, b []float64) float64 { return Pooled.Dot(a, b) }

// Dot is ParDot run where e says (Serial.Dot is the package-level Dot).
func (e Exec) Dot(a, b []float64) float64 {
	n := len(a)
	if len(b) != n {
		panic("vec: ParDot length mismatch")
	}
	p := e.fanout(n)
	if p == nil {
		return Dot(a, b)
	}
	partials := make([]float64, p.NumParts(n))
	p.Run(n, func(part, lo, hi int) {
		partials[part] = Dot(a[lo:hi], b[lo:hi])
	})
	var s float64
	for _, v := range partials {
		s += v
	}
	return s
}

// The methods below are the BLAS1 sweeps of the solvers run where e says.
// Each is elementwise, so any chunking computes the bits of the serial
// kernel; they go through the pool only to put the second core on the
// memory stream.

// sweepPool returns the pool to spread a sweep of `work` elements over, or
// nil when it runs as the serial kernel: on Serial, below the threshold, or
// when an operand's length is not n — the serial kernel then panics as it
// always did.
func (e Exec) sweepPool(work, n int, lens ...int) *pool.Pool {
	for _, l := range lens {
		if l != n {
			return nil
		}
	}
	return e.fanout(work)
}

// Axpy is the package-level Axpy (y += alpha·x) run where e says.
func (e Exec) Axpy(alpha float64, x, y []float64) {
	n := len(y)
	if p := e.sweepPool(n, n, len(x)); p != nil {
		p.Run(n, func(_, lo, hi int) { axpy(alpha, x[lo:hi], y[lo:hi]) })
		return
	}
	Axpy(alpha, x, y)
}

// XpayInto is the package-level XpayInto (dst = x + alpha·y) run where e says.
func (e Exec) XpayInto(dst, x []float64, alpha float64, y []float64) {
	n := len(dst)
	if p := e.sweepPool(n, n, len(x), len(y)); p != nil {
		p.Run(n, func(_, lo, hi int) { xpay(dst[lo:hi], x[lo:hi], alpha, y[lo:hi]) })
		return
	}
	XpayInto(dst, x, alpha, y)
}

// ThreeTermInto is the package-level ThreeTermInto run where e says.
func (e Exec) ThreeTermInto(dst []float64, rho float64, x []float64, gamma float64, y, w []float64) {
	n := len(dst)
	if p := e.sweepPool(n, n, len(x), len(y), len(w)); p != nil {
		p.Run(n, func(_, lo, hi int) {
			threeTerm(dst[lo:hi], rho, x[lo:hi], gamma, y[lo:hi], 1-rho, w[lo:hi])
		})
		return
	}
	ThreeTermInto(dst, rho, x, gamma, y, w)
}

// Sub is the package-level Sub (dst = a − b) run where e says.
func (e Exec) Sub(dst, a, b []float64) {
	n := len(dst)
	if p := e.sweepPool(n, n, len(a), len(b)); p != nil {
		p.Run(n, func(_, lo, hi int) { sub(dst[lo:hi], a[lo:hi], b[lo:hi]) })
		return
	}
	Sub(dst, a, b)
}

// HadamardInto is the package-level HadamardInto (dst[i] = a[i]·b[i]) run
// where e says: the Jacobi preconditioner application.
func (e Exec) HadamardInto(dst, a, b []float64) {
	n := len(dst)
	if p := e.sweepPool(n, n, len(a), len(b)); p != nil {
		p.Run(n, func(_, lo, hi int) { HadamardInto(dst[lo:hi], a[lo:hi], b[lo:hi]) })
		return
	}
	HadamardInto(dst, a, b)
}

// Copy is the package-level Copy run where e says.
func (e Exec) Copy(dst, src []float64) {
	n := len(dst)
	if p := e.sweepPool(n, n, len(src)); p != nil {
		p.Run(n, func(_, lo, hi int) { copy(dst[lo:hi], src[lo:hi]) })
		return
	}
	Copy(dst, src)
}

// CopyBlock is dst.CopyFrom(src) run where e says: one dispatch for the whole
// block, each part copying its row range of every column.
func (e Exec) CopyBlock(dst, src *Block) {
	if p := e.sweepPool(dst.N*dst.S(), dst.N, src.N); p != nil && dst.S() == src.S() {
		p.Run(dst.N, func(_, lo, hi int) {
			for j, c := range src.Cols {
				copy(dst.Cols[j][lo:hi], c[lo:hi])
			}
		})
		return
	}
	dst.CopyFrom(src)
}
