package precond

import (
	"fmt"
	"strconv"
	"strings"

	"spcg/internal/eig"
	"spcg/internal/sparse"
)

// Spec is a parsed, canonicalized preconditioner request string. The
// canonical form doubles as a cache key: "ssor" and "ssor:1.0" canonicalize
// identically and therefore share one setup-cache entry. Specs are plain
// values — parse once, build anywhere (the solve service, the autotuner and
// the experiment harness all construct preconditioners from the same Spec).
type Spec struct {
	// Kind is one of identity|jacobi|ssor|ic0|blockjacobi|chebyshev.
	Kind string
	// Omega is the SSOR relaxation factor.
	Omega float64
	// Blocks is the block-Jacobi block count.
	Blocks int
	// Degree is the Chebyshev polynomial degree.
	Degree int

	canonical string
}

// Canonical returns the canonical spelling of the spec ("ssor:1.2",
// "blockjacobi:16", "jacobi", ...), stable across equivalent inputs.
func (s Spec) Canonical() string { return s.canonical }

// Parse accepts "jacobi", "ssor:1.2", "blockjacobi:16", "chebyshev:3",
// "ic0", "identity"/"none", and "" (defaults to jacobi).
func Parse(spec string) (Spec, error) {
	name, arg := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name, arg = spec[:i], spec[i+1:]
	}
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "jacobi":
		return Spec{Kind: "jacobi", canonical: "jacobi"}, nil
	case "identity", "none":
		return Spec{Kind: "identity", canonical: "identity"}, nil
	case "ic0":
		return Spec{Kind: "ic0", canonical: "ic0"}, nil
	case "ssor":
		omega := 1.0
		if arg != "" {
			v, err := strconv.ParseFloat(arg, 64)
			if err != nil || !(v > 0 && v < 2) {
				return Spec{}, fmt.Errorf("bad ssor omega %q (need 0 < ω < 2)", arg)
			}
			omega = v
		}
		return Spec{Kind: "ssor", Omega: omega, canonical: fmt.Sprintf("ssor:%.4g", omega)}, nil
	case "blockjacobi":
		blocks := 16
		if arg != "" {
			v, err := strconv.Atoi(arg)
			if err != nil || v < 1 {
				return Spec{}, fmt.Errorf("bad blockjacobi block count %q", arg)
			}
			blocks = v
		}
		return Spec{Kind: "blockjacobi", Blocks: blocks, canonical: fmt.Sprintf("blockjacobi:%d", blocks)}, nil
	case "chebyshev":
		degree := 3
		if arg != "" {
			v, err := strconv.Atoi(arg)
			if err != nil || v < 1 {
				return Spec{}, fmt.Errorf("bad chebyshev degree %q", arg)
			}
			degree = v
		}
		return Spec{Kind: "chebyshev", Degree: degree, canonical: fmt.Sprintf("chebyshev:%d", degree)}, nil
	default:
		return Spec{}, fmt.Errorf("unknown preconditioner %q", spec)
	}
}

// Build constructs the preconditioner the spec describes for matrix a,
// estimating A's spectrum afresh (IntervalOf) when the kind needs it.
func (s Spec) Build(a *sparse.CSR) (Interface, error) { return s.BuildWith(a, IntervalOf) }

// BuildWith is Build with the source of A's spectral interval supplied. The
// Chebyshev polynomial preconditioner is built on interval(a) (the paper's
// set-up step, excluded from timings); the other kinds never call it. A
// caller that keeps per-matrix state passes a memo of IntervalOf, so that
// rebuilding an evicted preconditioner costs no second Ritz run.
func (s Spec) BuildWith(a *sparse.CSR, interval func(*sparse.CSR) (*eig.Estimate, error)) (Interface, error) {
	switch s.Kind {
	case "identity":
		return NewIdentity(a.Dim()), nil
	case "jacobi":
		return NewJacobi(a)
	case "ssor":
		return NewSSOR(a, s.Omega)
	case "ic0":
		return NewIC0(a)
	case "blockjacobi":
		return NewBlockJacobi(a, s.Blocks)
	case "chebyshev":
		est, err := interval(a)
		if err != nil {
			return nil, fmt.Errorf("chebyshev setup: %w", err)
		}
		return NewChebyshev(a, s.Degree, est.LambdaMin, est.LambdaMax)
	default:
		return nil, fmt.Errorf("unknown preconditioner kind %q", s.Kind)
	}
}

// IntervalOf estimates A's own spectrum with 20 steps of unpreconditioned
// CG: the interval the Chebyshev preconditioner is built on.
func IntervalOf(a *sparse.CSR) (*eig.Estimate, error) {
	return eig.RitzFromPCG(a, nil, eig.Options{Iterations: 20})
}
