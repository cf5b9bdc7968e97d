// Package perfmodel encodes the paper's Table 1: the closed-form
// computational cost per s steps of each algorithm — matrix-vector products
// plus preconditioner applications, local reduction FLOPs, and vector/matrix
// column FLOPs (per system matrix row) — and derives modeled per-iteration
// times from a dist.Cluster for speedup prediction.
package perfmodel

import (
	"fmt"

	"spcg/internal/dist"
)

// Algorithm enumerates the solvers of Table 1.
type Algorithm string

// The five algorithms compared in the paper's Table 1.
const (
	PCG     Algorithm = "PCG"
	SPCGMon Algorithm = "sPCGmon"
	SPCG    Algorithm = "sPCG"
	CAPCG   Algorithm = "CA-PCG"
	CAPCG3  Algorithm = "CA-PCG3"
)

// Algorithms lists Table 1's rows in paper order.
func Algorithms() []Algorithm { return []Algorithm{PCG, SPCGMon, SPCG, CAPCG, CAPCG3} }

// ByName maps a lowercase serving method name ("pcg", "spcg", "spcgmon",
// "capcg", "capcg3") to its Table 1 algorithm. Methods without a Table 1 row
// (adaptive, pcg3) report ok=false.
func ByName(name string) (Algorithm, bool) {
	switch name {
	case "pcg":
		return PCG, true
	case "spcgmon":
		return SPCGMon, true
	case "spcg":
		return SPCG, true
	case "capcg":
		return CAPCG, true
	case "capcg3":
		return CAPCG3, true
	default:
		return "", false
	}
}

// Cost is one row of Table 1, all per s steps. FLOP columns are per system
// matrix row (i.e. total FLOPs divided by n). A value of −1 marks the
// paper's "−" (not applicable: PCG and sPCGmon support only the monomial
// column).
type Cost struct {
	Alg Algorithm
	S   int
	// MVAndPrec is the number of matrix-vector products (= preconditioner
	// applications) per s steps.
	MVAndPrec int
	// LocalReductions is the FLOPs/n spent producing reduction operands.
	LocalReductions float64
	// VectorOpsMonomial is the FLOPs/n of vector/matrix-column work with
	// the monomial basis.
	VectorOpsMonomial float64
	// VectorOpsArbitraryExtra is the additional FLOPs/n for an arbitrary
	// basis (−1 when the algorithm cannot use one).
	VectorOpsArbitraryExtra float64
	// TotalMonomial and TotalArbitrary are the "Total remaining FLOPs/n"
	// columns (−1 when not applicable).
	TotalMonomial  float64
	TotalArbitrary float64
}

// Table1 returns the paper's Table 1 row for the algorithm at block size s.
// PCG's row is normalized per s steps like the others.
func Table1(alg Algorithm, s int) (Cost, error) {
	if s < 1 {
		return Cost{}, fmt.Errorf("perfmodel: s must be ≥ 1, got %d", s)
	}
	fs := float64(s)
	c := Cost{Alg: alg, S: s}
	switch alg {
	case PCG:
		c.MVAndPrec = s
		c.LocalReductions = 2 * fs
		c.VectorOpsMonomial = 6 * fs
		c.VectorOpsArbitraryExtra = -1
		c.TotalMonomial = 8 * fs
		c.TotalArbitrary = -1
	case SPCGMon:
		c.MVAndPrec = s
		c.LocalReductions = 2 * fs
		c.VectorOpsMonomial = 4*fs*fs + 4*fs
		c.VectorOpsArbitraryExtra = -1
		c.TotalMonomial = 4*fs*fs + 6*fs
		c.TotalArbitrary = -1
	case SPCG:
		c.MVAndPrec = s
		c.LocalReductions = 2 * fs * (fs + 1)
		c.VectorOpsMonomial = 4*fs*fs + 4*fs
		c.VectorOpsArbitraryExtra = 10*fs - 4
		c.TotalMonomial = 6*fs*fs + 6*fs
		c.TotalArbitrary = 6*fs*fs + 16*fs - 4
	case CAPCG:
		c.MVAndPrec = 2*s - 1
		c.LocalReductions = (2*fs + 1) * (2*fs + 1)
		c.VectorOpsMonomial = 20*fs + 6
		c.VectorOpsArbitraryExtra = 10*fs - 9
		c.TotalMonomial = 4*fs*fs + 24*fs + 7
		c.TotalArbitrary = 4*fs*fs + 34*fs - 2
	case CAPCG3:
		c.MVAndPrec = s
		c.LocalReductions = (2*fs + 1) * (2*fs + 1)
		c.VectorOpsMonomial = 8*fs*fs + 17*fs
		c.VectorOpsArbitraryExtra = 5*fs - 2
		c.TotalMonomial = 12*fs*fs + 21*fs + 1
		c.TotalArbitrary = 12*fs*fs + 26*fs - 1
	default:
		return Cost{}, fmt.Errorf("perfmodel: unknown algorithm %q", alg)
	}
	return c, nil
}

// GlobalReductionsPerSSteps returns the number of global reduction
// operations each algorithm performs per s steps: the paper's headline
// 2s-to-1 ratio.
func GlobalReductionsPerSSteps(alg Algorithm, s int) int {
	if alg == PCG {
		return 2 * s
	}
	return 1
}

// ReductionPayload returns the number of float64 values in the algorithm's
// global reduction(s) per s steps.
func ReductionPayload(alg Algorithm, s int) int {
	switch alg {
	case PCG:
		return 2 * s
	case SPCGMon:
		return 2 * s
	case SPCG:
		return 2 * s * (s + 1)
	case CAPCG, CAPCG3:
		return (2*s + 1) * (2*s + 1)
	default:
		return 0
	}
}

// Prediction holds the modeled per-s-steps time split of one algorithm on
// one cluster.
type Prediction struct {
	Cost
	// MVTime, PrecTime, LocalTime, ReduceTime, HaloTime are modeled seconds
	// per s steps; Total is their sum.
	MVTime, PrecTime, LocalTime, ReduceTime float64
	Total                                   float64
}

// Predict models the per-s-steps time of an algorithm on a cluster, given
// the preconditioner's per-application global FLOPs and halo count, using
// Table 1's operation counts and the cluster's roofline/collective models.
// Arbitrary-basis vector costs are used when arbitrary is true and the
// algorithm supports it.
func Predict(alg Algorithm, s int, cl *dist.Cluster, precFlops float64, precHalos int, arbitrary bool) (Prediction, error) {
	c, err := Table1(alg, s)
	if err != nil {
		return Prediction{}, err
	}
	p := Prediction{Cost: c}
	nMV := float64(c.MVAndPrec)
	// The per-event prices are the tracker's own (dist's price list).
	p.MVTime = nMV * cl.SpMVTime()
	p.PrecTime = nMV * cl.PrecTime(precFlops, precHalos)

	vecFlops := c.VectorOpsMonomial
	if arbitrary && c.VectorOpsArbitraryExtra >= 0 {
		vecFlops += c.VectorOpsArbitraryExtra
	}
	n := float64(cl.N)
	share := cl.MaxRowShare()
	// BLAS1-dominated algorithms stream ~12 bytes per flop; blocked ones ~4.
	bytesPerFlop := 4.0
	if alg == PCG || alg == CAPCG3 {
		bytesPerFlop = 12
	}
	p.LocalTime = cl.Roofline(vecFlops*n*share, vecFlops*n*share*bytesPerFlop)
	p.LocalTime += cl.Roofline(c.LocalReductions*n*share, c.LocalReductions*n*share*8)

	reductions := GlobalReductionsPerSSteps(alg, s)
	payload := ReductionPayload(alg, s)
	p.ReduceTime = float64(reductions) * cl.AllreduceTime(payload/reductions)

	p.Total = p.MVTime + p.PrecTime + p.LocalTime + p.ReduceTime
	return p, nil
}
