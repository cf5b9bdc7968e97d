// Package vec provides the dense vector and tall-skinny block-vector
// (multivector) kernels used by all solvers: the BLAS1 operations of standard
// PCG and the BLAS2/BLAS3-style blocked operations that the s-step methods
// substitute for them.
//
// All kernels operate on []float64 and n×s BlockVectors stored column-major
// (each column is a contiguous []float64 of length n), which matches the
// access pattern of the solvers: columns are grown one at a time by the
// matrix powers kernel and then combined with small s×s coefficient matrices.
package vec

import (
	"fmt"
	"math"
)

// Dot returns the inner product aᵀb. Panics if lengths differ.
//
// The sum runs in four independent accumulators by index mod 4 (combined in
// the fixed order (s0+s1)+(s2+s3)), which breaks the FP dependency chain
// that otherwise serializes the adds. The summation order differs from a
// plain sequential loop but is itself fixed, so results stay deterministic
// (kernel.go: dotGo defines it, the AVX2 kernel reproduces it).
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dot length mismatch %d != %d", len(a), len(b)))
	}
	return dot(a, b)
}

// Norm2 returns the Euclidean norm ‖a‖₂ computed with scaling to avoid
// overflow for very large or very small entries.
func Norm2(a []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range a {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vec: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	axpy(alpha, x, y)
}

// Axpby computes y = alpha*x + beta*y in place.
func Axpby(alpha float64, x []float64, beta float64, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vec: Axpby length mismatch %d != %d", len(x), len(y)))
	}
	for i, xi := range x {
		y[i] = alpha*xi + beta*y[i]
	}
}

// XpayInto computes dst = x + alpha*y. dst may alias x or y.
func XpayInto(dst, x []float64, alpha float64, y []float64) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("vec: XpayInto length mismatch")
	}
	xpay(dst, x, alpha, y)
}

// ThreeTermInto computes dst = rho·(x − gamma·y) + (1−rho)·w, the BLAS1
// update of the three-term-recurrence methods (PCG3, CA-PCG3): 4 flops per
// row over 4 streams. dst may alias an operand.
func ThreeTermInto(dst []float64, rho float64, x []float64, gamma float64, y, w []float64) {
	if len(x) != len(dst) || len(y) != len(dst) || len(w) != len(dst) {
		panic("vec: ThreeTermInto length mismatch")
	}
	threeTerm(dst, rho, x, gamma, y, 1-rho, w)
}

// Scale computes x *= alpha in place (4-way unrolled).
func Scale(alpha float64, x []float64) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x[i] *= alpha
		x[i+1] *= alpha
		x[i+2] *= alpha
		x[i+3] *= alpha
	}
	for ; i < len(x); i++ {
		x[i] *= alpha
	}
}

// ScaleInto computes dst = alpha*x. dst may alias x.
func ScaleInto(dst []float64, alpha float64, x []float64) {
	if len(dst) != len(x) {
		panic("vec: ScaleInto length mismatch")
	}
	for i, xi := range x {
		dst[i] = alpha * xi
	}
}

// Copy copies src into dst. Panics if lengths differ (unlike builtin copy,
// silent truncation here would hide partitioning bugs).
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vec: Copy length mismatch %d != %d", len(dst), len(src)))
	}
	copy(dst, src)
}

// Zero sets every entry of x to zero.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Fill sets every entry of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Sub computes dst = a - b. dst may alias a or b.
func Sub(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("vec: Sub length mismatch")
	}
	sub(dst, a, b)
}

// HadamardInto computes dst[i] = a[i]*b[i].
func HadamardInto(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("vec: HadamardInto length mismatch")
	}
	hadamard(dst, a, b)
}

// Threeterm computes dst = (z - theta*y - mu*w)/gamma where z, y, w are
// vectors, implementing one step of the polynomial basis three-term
// recurrence P_{l+1} = (z·P_l − θ_l P_l − μ_{l−1} P_{l−1})/γ_l.
// w may be nil, in which case the μ term is omitted (first recurrence step);
// a non-nil w is subtracted even at μ = 0 (0·Inf is NaN), because the fused
// basis steps finish their rows with this kernel too (sparse.basisTail) and
// must give the unfused step's bits. dst may alias z.
func Threeterm(dst, z []float64, theta float64, y []float64, mu float64, w []float64, gamma float64) {
	if gamma == 0 {
		panic("vec: Threeterm with zero gamma")
	}
	inv := 1 / gamma
	z, y = z[:len(dst)], y[:len(dst)]
	if w == nil {
		for i := range dst {
			dst[i] = (z[i] - theta*y[i]) * inv
		}
		return
	}
	w = w[:len(dst)]
	for i := range dst {
		dst[i] = (z[i] - theta*y[i] - mu*w[i]) * inv
	}
}
