package solver

import (
	"testing"

	"spcg/internal/sparse"
	"spcg/internal/vec"
)

var overheadSink float64

// TestDisabledTracerOverhead guards the pay-for-use contract on the hot
// path: with Options.Trace nil, the instrumented ctx dot/axpy at n = 2²⁰
// must cost essentially the raw kernel — the nil checks in obs.Begin/End
// (and the nil tracker) may not add more than noise. The 1.5× bound is
// deliberately loose for shared CI machines; a forgotten always-on
// time.Now() pair costs far more than that on a memory-bound kernel.
func TestDisabledTracerOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	n := 1 << 20
	a := sparse.Poisson1D(n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) + 0.5
		y[i] = float64(i%5) - 1.5
	}
	lb, err := newLocal(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newCtx(lb, x, Options{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	c.attachLocal(lb)
	if c.obs != nil {
		t.Fatal("ctx has a tracer without Options.Trace")
	}

	rawDot := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			overheadSink = vec.ParDot(x, y)
		}
	})
	instrDot := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			overheadSink = c.localDot(x, y)
		}
	})
	rawAxpy := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vec.Pooled.Axpy(1e-9, x, y) // the kernel c.axpy runs, as ParDot is localDot's
		}
	})
	instrAxpy := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.axpy(1e-9, x, y)
		}
	})

	check := func(name string, raw, instr testing.BenchmarkResult) {
		r, in := raw.NsPerOp(), instr.NsPerOp()
		t.Logf("%s: raw %d ns/op, instrumented (nil tracer) %d ns/op", name, r, in)
		if in > r+r/2 {
			t.Errorf("%s: nil-tracer path %d ns/op vs raw %d ns/op (> 1.5×)", name, in, r)
		}
	}
	check("dot n=2^20", rawDot, instrDot)
	check("axpy n=2^20", rawAxpy, instrAxpy)
}
