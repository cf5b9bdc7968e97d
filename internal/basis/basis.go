// Package basis defines the polynomial basis types used by the s-step
// solvers and the "change-of-basis" matrices of the paper's Eq. (9).
//
// A basis of dimension s+1 is a sequence of polynomials P₀,…,P_s with
// P₀(z) = 1 that satisfies the three-term recurrence
//
//	z·P_l(z) = γ_l·P_{l+1}(z) + θ_l·P_l(z) + μ_{l−1}·P_{l−1}(z)
//
// (Eq. (8) of the paper rearranged; our μ sign convention matches the B_i
// layout of Eq. (9) so that B_i can be read directly off the parameters).
// The basis matrices V = [P₀(AM⁻¹)w, …, P_s(AM⁻¹)w] of the Matrix Powers
// Kernel are generated column-by-column from these parameters, and
// AM⁻¹·V(:,0:s−1) = V·B_{s+1} with the tridiagonal-shaped B of Eq. (9).
//
// The paper evaluates three basis types: monomial (P_l(z) = zˡ; the only
// option for the original sPCG_mon, numerically fragile for s ≳ 5), Newton
// (shifted by Leja-ordered Ritz value estimates) and Chebyshev (scaled and
// shifted Chebyshev polynomials on an estimated spectral interval).
package basis

import (
	"fmt"
	"math"
	"sort"

	"spcg/internal/dense"
)

// Type enumerates the supported basis types.
type Type int

const (
	// Monomial is the power basis P_l(z) = zˡ.
	Monomial Type = iota
	// Newton is the (scaled) Newton basis with Leja-ordered shifts.
	Newton
	// Chebyshev is the shifted, scaled Chebyshev basis on [λmin, λmax].
	Chebyshev
)

// String returns the lower-case basis name used in CLI flags and reports.
func (t Type) String() string {
	switch t {
	case Monomial:
		return "monomial"
	case Newton:
		return "newton"
	case Chebyshev:
		return "chebyshev"
	default:
		return fmt.Sprintf("basis.Type(%d)", int(t))
	}
}

// ParseType parses a basis name as printed by String.
func ParseType(s string) (Type, error) {
	switch s {
	case "monomial":
		return Monomial, nil
	case "newton":
		return Newton, nil
	case "chebyshev":
		return Chebyshev, nil
	default:
		return 0, fmt.Errorf("basis: unknown basis type %q (want monomial, newton or chebyshev)", s)
	}
}

// Params holds the three-term recurrence parameters for generating a basis
// of length len(Theta)+1 polynomials: Theta[l], Gamma[l] for l = 0..s−1 and
// Mu[l−1] for l = 1..s−1 (Mu has length s−1; Mu[l−1] multiplies P_{l−1} in
// the recurrence for P_{l+1}).
type Params struct {
	Type  Type
	Theta []float64
	Gamma []float64
	Mu    []float64
}

// Degree returns the highest polynomial degree s the parameters support.
func (p *Params) Degree() int { return len(p.Theta) }

// Validate checks internal consistency (lengths, nonzero γ).
func (p *Params) Validate() error {
	s := len(p.Theta)
	if len(p.Gamma) != s {
		return fmt.Errorf("basis: len(Gamma)=%d, want %d", len(p.Gamma), s)
	}
	if s > 0 && len(p.Mu) != s-1 {
		return fmt.Errorf("basis: len(Mu)=%d, want %d", len(p.Mu), s-1)
	}
	for l, g := range p.Gamma {
		if g == 0 || math.IsNaN(g) || math.IsInf(g, 0) {
			return fmt.Errorf("basis: Gamma[%d]=%v is not a usable scale", l, g)
		}
	}
	return nil
}

// MonomialParams returns parameters for the monomial basis of degree s:
// θ = μ = 0, γ = 1, giving P_{l+1}(z) = z·P_l(z).
func MonomialParams(s int) *Params {
	if s < 1 {
		panic("basis: degree must be ≥ 1")
	}
	return &Params{
		Type:  Monomial,
		Theta: make([]float64, s),
		Gamma: ones(s),
		Mu:    make([]float64, max(0, s-1)),
	}
}

// NewtonParams returns parameters for the Newton basis of degree s with the
// given shifts (typically Ritz values): P_{l+1}(z) = (z − shift_l)·P_l(z)/γ_l.
// Shifts are Leja-ordered for stability and repeated cyclically if fewer than
// s are supplied. The scale γ_l = max(|λmax−shift_l|, tiny)... the classical
// choice is γ_l chosen so columns have comparable norms; we use the capacity
// estimate (λmax−λmin)/4 uniformly, which keeps the recurrence well scaled
// without per-column norm communication.
func NewtonParams(s int, shifts []float64, lambdaMin, lambdaMax float64) *Params {
	if s < 1 {
		panic("basis: degree must be ≥ 1")
	}
	if len(shifts) == 0 {
		panic("basis: NewtonParams needs at least one shift")
	}
	ordered := LejaOrder(shifts)
	theta := make([]float64, s)
	for l := range theta {
		theta[l] = ordered[l%len(ordered)]
	}
	scale := (lambdaMax - lambdaMin) / 4
	if scale <= 0 {
		scale = 1
	}
	return &Params{
		Type:  Newton,
		Theta: theta,
		Gamma: fill(s, scale),
		Mu:    make([]float64, max(0, s-1)),
	}
}

// ChebyshevParams returns parameters for the shifted, scaled Chebyshev basis
// on [lambdaMin, lambdaMax]: with c = (λmax+λmin)/2 and e = (λmax−λmin)/2,
//
//	z·P₀ = e·P₁ + c·P₀          (γ₀ = e, θ₀ = c)
//	z·P_l = (e/2)·P_{l+1} + c·P_l + (e/2)·P_{l−1}   for l ≥ 1,
//
// which are exactly the entries displayed in the paper's Eq. (9).
func ChebyshevParams(s int, lambdaMin, lambdaMax float64) *Params {
	if s < 1 {
		panic("basis: degree must be ≥ 1")
	}
	if !(lambdaMax > lambdaMin) {
		panic(fmt.Sprintf("basis: invalid Chebyshev interval [%v, %v]", lambdaMin, lambdaMax))
	}
	c := (lambdaMax + lambdaMin) / 2
	e := (lambdaMax - lambdaMin) / 2
	theta := fill(s, c)
	gamma := fill(s, e/2)
	gamma[0] = e
	mu := fill(max(0, s-1), e/2)
	return &Params{Type: Chebyshev, Theta: theta, Gamma: gamma, Mu: mu}
}

// New builds parameters of the given type and degree from a spectral
// estimate. For Newton, shifts are the provided Ritz values (falling back to
// Chebyshev points on the interval when none are available).
func New(t Type, s int, lambdaMin, lambdaMax float64, ritz []float64) (*Params, error) {
	switch t {
	case Monomial:
		return MonomialParams(s), nil
	case Newton:
		shifts := ritz
		if len(shifts) == 0 {
			shifts = ChebyshevPoints(s, lambdaMin, lambdaMax)
		}
		return NewtonParams(s, shifts, lambdaMin, lambdaMax), nil
	case Chebyshev:
		if !(lambdaMax > lambdaMin) {
			return nil, fmt.Errorf("basis: Chebyshev needs λmax > λmin, got [%v, %v]", lambdaMin, lambdaMax)
		}
		return ChebyshevParams(s, lambdaMin, lambdaMax), nil
	default:
		return nil, fmt.Errorf("basis: unknown type %v", t)
	}
}

// ChebyshevPoints returns the s Chebyshev points of the interval [lo, hi]
// (zeros of T_s mapped to the interval), a good default shift set.
func ChebyshevPoints(s int, lo, hi float64) []float64 {
	c, e := (hi+lo)/2, (hi-lo)/2
	pts := make([]float64, s)
	for k := 0; k < s; k++ {
		pts[k] = c + e*math.Cos(math.Pi*(float64(k)+0.5)/float64(s))
	}
	return pts
}

// LejaOrder returns the input points reordered by the Leja criterion: the
// first point has maximal magnitude; each subsequent point maximizes the
// product of distances to the already chosen ones. Leja ordering keeps the
// Newton basis condition number growth polynomial instead of exponential.
// The input is not modified.
func LejaOrder(pts []float64) []float64 {
	n := len(pts)
	out := make([]float64, 0, n)
	remaining := append([]float64(nil), pts...)
	sort.Float64s(remaining)
	// Start from the largest magnitude point.
	best := 0
	for i, p := range remaining {
		if math.Abs(p) > math.Abs(remaining[best]) {
			best = i
		}
	}
	out = append(out, remaining[best])
	remaining = append(remaining[:best], remaining[best+1:]...)
	for len(remaining) > 0 {
		best = 0
		bestVal := math.Inf(-1)
		for i, cand := range remaining {
			// log-product of distances for numerical robustness.
			v := 0.0
			for _, chosen := range out {
				d := math.Abs(cand - chosen)
				if d == 0 {
					v = math.Inf(-1)
					break
				}
				v += math.Log(d)
			}
			if v > bestVal {
				bestVal, best = v, i
			}
		}
		out = append(out, remaining[best])
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return out
}

// ChangeOfBasis returns the (i)×(i−1) matrix B_i of the paper's Eq. (9):
// column l holds [μ_{l−1}; θ_l; γ_l] on rows l−1, l, l+1, so that
// AM⁻¹·V(:,0:i−2) = V·B_i for a basis matrix V with i columns.
func (p *Params) ChangeOfBasis(i int) *dense.Mat {
	if i < 2 || i-1 > p.Degree() {
		panic(fmt.Sprintf("basis: ChangeOfBasis size %d out of range for degree %d", i, p.Degree()))
	}
	b := dense.NewMat(i, i-1)
	for l := 0; l < i-1; l++ {
		if l > 0 {
			b.Set(l-1, l, p.Mu[l-1])
		}
		b.Set(l, l, p.Theta[l])
		b.Set(l+1, l, p.Gamma[l])
	}
	return b
}

// CAPCGChangeOfBasis returns the (2s+1)×(2s+1) block matrix B used by
// CA-PCG (Section 2.3): diag-like placement of B_{s+1} (acting on the
// (s+1)-column Q/P block) and B_s (acting on the s-column R/U block), with
// zero columns for the last column of each block:
//
//	B = [ B_{s+1}  0_{s+1,1}  0_{s+1,s−1}  0_{s+1,1} ]
//	    [ 0_{s,s}  0_{s,1}    B_s          0_{s,1}   ]
func (p *Params) CAPCGChangeOfBasis(s int) *dense.Mat {
	if s < 1 || s > p.Degree() {
		panic(fmt.Sprintf("basis: CAPCGChangeOfBasis s=%d out of range for degree %d", s, p.Degree()))
	}
	n := 2*s + 1
	b := dense.NewMat(n, n)
	// Top-left: B_{s+1} (s+1 rows × s cols) at rows 0..s, cols 0..s−1.
	bs1 := p.ChangeOfBasis(s + 1)
	for i := 0; i <= s; i++ {
		for j := 0; j < s; j++ {
			b.Set(i, j, bs1.At(i, j))
		}
	}
	// Column s is zero (last column of the Q block).
	if s >= 2 {
		// Bottom-right: B_s (s rows × s−1 cols) at rows s+1..2s, cols s+1..2s−1.
		bs := p.ChangeOfBasis(s)
		for i := 0; i < s; i++ {
			for j := 0; j < s-1; j++ {
				b.Set(s+1+i, s+1+j, bs.At(i, j))
			}
		}
	}
	// Column 2s is zero (last column of the R block).
	return b
}

func ones(n int) []float64 { return fill(n, 1) }

func fill(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}
