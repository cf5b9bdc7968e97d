package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The microkernel contract (kernel.go): every seam function returns, bit for
// bit, what its Go reference returns. The assembly is outside the analyzers
// of internal/lint; this file is what holds it. Under -tags purego (or off
// amd64) the seam is the reference and the tests hold trivially.

// sameBits fails unless got and want agree bit for bit. Two NaNs agree
// whatever their payloads, which are not part of the contract.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: entry %d = %v (%#x), reference %v (%#x)",
				what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-310,
}

// kernelOperand returns n values starting at element offset off of a fresh
// array, so the data is not 32-byte aligned for odd off. With special, about
// one value in five is a NaN, an infinity, a signed zero, a huge value or a
// denormal.
func kernelOperand(rng *rand.Rand, n, off int, special bool) []float64 {
	v := make([]float64, off+n)[off:]
	for i := range v {
		v[i] = rng.NormFloat64()
		if special && rng.Intn(5) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		}
	}
	return v
}

func clone(v []float64) []float64 { return append([]float64(nil), v...) }

// TestKernelParityElementwise runs dot and every elementwise microkernel
// against its reference over lengths 0..67 (every remainder mod 4 on both
// sides of the vector body), at even and odd element offsets, on ordinary
// and on special values, including the aliasings the solvers use.
func TestKernelParityElementwise(t *testing.T) {
	t.Logf("kernel implementation: %s", KernelImpl())
	rng := rand.New(rand.NewSource(41))
	for n := 0; n <= 67; n++ {
		for _, off := range []int{0, 1, 3} {
			for _, special := range []bool{false, true} {
				op := func() []float64 { return kernelOperand(rng, n, off, special) }
				tag := fmt.Sprintf("n=%d off=%d special=%v", n, off, special)
				d, x0, x1, x2, x3 := op(), op(), op(), op(), op()
				c := kernelOperand(rng, 4, 0, special)

				sameBits(t, "dot "+tag, []float64{dot(x0, x1)}, []float64{dotGo(x0, x1)})
				sameBits(t, "dot(x,x) "+tag, []float64{dot(x0, x0)}, []float64{dotGo(x0, x0)})

				// Each case runs the kernel and its reference on separate
				// copies of d.
				check := func(name string, kernel, ref func(d []float64)) {
					got, want := clone(d), clone(d)
					kernel(got)
					ref(want)
					sameBits(t, name+" "+tag, got, want)
				}
				check("axpy",
					func(d []float64) { axpy(c[0], x0, d) },
					func(d []float64) { axpyGo(c[0], x0, d) })
				check("xpay",
					func(d []float64) { xpay(d, x0, c[0], x1) },
					func(d []float64) { xpayGo(d, x0, c[0], x1) })
				check("xpay dst=y", // p = u + β·p
					func(d []float64) { xpay(d, x0, c[0], d) },
					func(d []float64) { xpayGo(d, x0, c[0], d) })
				check("sub",
					func(d []float64) { sub(d, x0, x1) },
					func(d []float64) { subGo(d, x0, x1) })
				check("sub dst=b", // r = b − r
					func(d []float64) { sub(d, x0, d) },
					func(d []float64) { subGo(d, x0, d) })
				check("hadamard",
					func(d []float64) { hadamard(d, x0, x1) },
					func(d []float64) { hadamardGo(d, x0, x1) })
				check("hadamard dst=b", // an in-place diagonal apply
					func(d []float64) { hadamard(d, x0, d) },
					func(d []float64) { hadamardGo(d, x0, d) })
				check("threeTerm",
					func(d []float64) { threeTerm(d, c[0], x0, c[1], x1, 1-c[0], x2) },
					func(d []float64) { threeTermGo(d, c[0], x0, c[1], x1, 1-c[0], x2) })
				check("combineInit2",
					func(d []float64) { combineInit2(d, x0, x1, c[0], c[1]) },
					func(d []float64) { combineInit2Go(d, x0, x1, c[0], c[1]) })
				check("combine2",
					func(d []float64) { combine2(d, x0, x1, c[0], c[1]) },
					func(d []float64) { combine2Go(d, x0, x1, c[0], c[1]) })
				check("combine3",
					func(d []float64) { combine3(d, x0, x1, x2, c[0], c[1], c[2]) },
					func(d []float64) { combine3Go(d, x0, x1, x2, c[0], c[1], c[2]) })
				check("combine4",
					func(d []float64) { combine4(d, x0, x1, x2, x3, c[0], c[1], c[2], c[3]) },
					func(d []float64) { combine4Go(d, x0, x1, x2, x3, c[0], c[1], c[2], c[3]) })
			}
		}
	}
}

// TestKernelParityGramTile runs the register-blocked Gram tile against the
// reference for every shape (sa, sb) in 1..23 — every remainder of the 2×4
// blocking in both directions — on tiles that start at an odd row and whose
// length covers every remainder mod 4, accumulating into a non-zero acc.
func TestKernelParityGramTile(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const maxS, rows = 23, 80
	for _, special := range []bool{false, true} {
		cols := func() [][]float64 {
			c := make([][]float64, maxS)
			for j := range c {
				c[j] = kernelOperand(rng, rows, j%2, special)
			}
			return c
		}
		x, y := cols(), cols()
		for sa := 1; sa <= maxS; sa++ {
			for sb := 1; sb <= maxS; sb++ {
				acc0 := kernelOperand(rng, sa*sb, 0, false)
				for _, tile := range [][2]int{{1, 1}, {1, 4}, {3, 8}, {1, 67}, {5, 73}, {0, 79}} {
					got, want := clone(acc0), clone(acc0)
					gramTile(got, x[:sa], y[:sb], tile[0], tile[1])
					gramTileGo(want, x[:sa], y[:sb], tile[0], tile[1])
					sameBits(t, fmt.Sprintf("gramTile %dx%d rows [%d,%d) special=%v", sa, sb, tile[0], tile[1], special), got, want)
				}
			}
		}
	}
}
