package vec

import "spcg/internal/pool"

// parallelThreshold is the minimum amount of work (slice length, or the
// kernel's operand count) at which the kernels fan out to the worker pool. A
// join on the hot team costs under 2 µs (internal/pool), but below this a
// sweep is a few microseconds itself and the second core's share of it does
// not pay for the cache lines that move. It decides speed only: a reduction's
// partial sums follow the fixed grid of sumGrid whether it runs pooled or
// inline, so moving it moves no bit.
const parallelThreshold = 1 << 15

// dotChunk is the fixed chunk length of Exec.Dot: a dot over more entries sums
// one partial per chunk, in chunk order. A dot of at most dotChunk entries is
// one chunk, the package-level Dot's bits.
const dotChunk = 1 << 15

// ParDot is Dot with pool parallelism for large vectors: Pooled.Dot.
func ParDot(a, b []float64) float64 { return Pooled.Dot(a, b) }

// Dot is the inner product run where e says. Over more than dotChunk entries
// it sums one partial per dotChunk-entry chunk in chunk order, so its bits
// depend on the length alone — not on e, the worker count or who runs a
// chunk (Serial.Dot and Pooled.Dot agree bit for bit).
func (e Exec) Dot(a, b []float64) float64 {
	n := len(a)
	if len(b) != n {
		panic("vec: ParDot length mismatch")
	}
	if n <= dotChunk {
		return dot(a, b)
	}
	var out [1]float64
	e.sumGrid(out[:], n, dotChunk, n, rowSums{v: a, w: b})
	return out[0]
}

// rowSums is one reduction over rows that sumGrid splits into steps:
//
//	y == nil: the dot v·w
//	x == nil: Yᵀ·v, a 1×s Gram tile (GramVecFused)
//	else:     Xᵀ·Y, a Gram tile (GramFused)
type rowSums struct {
	x, y [][]float64
	v, w []float64
}

// add adds the sums over rows [lo, hi) into acc, each entry exactly once.
func (k rowSums) add(acc []float64, lo, hi int) {
	switch {
	case k.y == nil:
		acc[0] += dot(k.v[lo:hi], k.w[lo:hi])
	case k.x == nil:
		gramTile(acc, [][]float64{k.v}, k.y, lo, hi)
	default:
		gramTile(acc, k.x, k.y, lo, hi)
	}
}

// sumGrid is the one summation order of the package's reductions. It cuts
// rows [0, n) into steps of `step` rows — a grid fixed by n and step alone —
// and adds each step's sums into out in step order. Inline (on Serial, below
// the threshold of `work`, on a one-worker pool, or for a single step) it adds
// every step straight into out; pooled, the workers claim contiguous runs of
// steps, each step into its own zeroed partial, and the partials are added
// into out in step order afterwards. A step's sums are added once either way,
// so neither the worker count nor which goroutine ran a step decides a bit.
func (e Exec) sumGrid(out []float64, n, step, work int, k rowSums) {
	steps := (n + step - 1) / step
	p := e.fanout(work)
	if p == nil || steps <= 1 {
		for lo := 0; lo < n; lo += step {
			k.add(out, lo, min(lo+step, n))
		}
		return
	}
	m := len(out)
	partials := make([]float64, steps*m)
	p.Run(steps, func(_, first, last int) {
		for t := first; t < last; t++ {
			k.add(partials[t*m:(t+1)*m], t*step, min((t+1)*step, n))
		}
	})
	for t := range steps {
		for i, v := range partials[t*m : (t+1)*m] {
			out[i] += v
		}
	}
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
