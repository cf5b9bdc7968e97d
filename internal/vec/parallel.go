package vec

// parallelThreshold is the minimum slice length at which the parallel kernel
// variants fan out to the worker pool; below it the sequential kernels win
// because even a pooled dispatch costs a few channel operations.
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
