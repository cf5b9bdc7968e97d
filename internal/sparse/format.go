package sparse

import (
	"math"
	"time"
)

// FormatChoice records a CSR-or-SELL verdict for one matrix, and the
// structure statistics plus probe timings that drove it. Nothing solves or
// serves on the verdict: every solve runs on CSR. ChooseFormat stays only
// because the benchmark's sparse.choose_format_ms row times it; it goes with
// SELL once the benchmark drops that row (ROADMAP items 3(a) and 4).
type FormatChoice struct {
	Format string `json:"format"` // "csr" or "sell"

	C     int `json:"c,omitempty"`     // SELL slice height (when Format == "sell")
	Sigma int `json:"sigma,omitempty"` // SELL sorting window

	RowCV         float64 `json:"row_cv"`            // row-length coefficient of variation
	PaddingRatio  float64 `json:"padding_ratio"`     // SELL padded entries / nnz (estimate)
	ProbeCSRNs    int64   `json:"probe_csr_ns"`      // measured CSR SpMV (0 = probe skipped)
	ProbeChosenNs int64   `json:"probe_selected_ns"` // measured SpMV of the selected format
}

// Selection thresholds. The structure heuristic only prunes the SELL
// candidate; the final call is a measured SpMV probe, so it just needs to
// be loose enough to never exclude a winner.
const (
	// formatProbeMinNNZ gates the whole machinery: below it SpMV is
	// cache-resident and format is irrelevant, so CSR is kept without
	// probing (also keeps small-matrix tests deterministic).
	formatProbeMinNNZ = 1 << 15

	// maxPaddingRatio excludes SELL when σ-window sorting still leaves
	// this fraction of padded entries: the padding is streamed on every
	// SpMV, so beyond ~25% extra traffic SELL cannot win on a
	// bandwidth-bound kernel.
	maxPaddingRatio = 0.25

	formatProbeReps      = 3
	formatSwitchHysteres = 0.98 // SELL must beat CSR by >2%
)

// RowLengthCV returns the coefficient of variation (stddev/mean) of the row
// lengths — the classic ELL-suitability statistic.
func RowLengthCV(a *CSR) float64 {
	n := a.Dim()
	if n == 0 || a.NNZ() == 0 {
		return 0
	}
	mean := float64(a.NNZ()) / float64(n)
	var ss float64
	for i := 0; i < n; i++ {
		d := float64(a.RowNNZ(i)) - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(n)) / mean
}

// EstimatePaddingRatio computes the SELL-C-σ padding ratio from row lengths
// alone, without building the matrix: padded/nnz after σ-window sorting
// into height-c slices.
func EstimatePaddingRatio(a *CSR, c, sigma int) float64 {
	if c <= 0 {
		c = DefaultSliceHeight
	}
	if sigma <= 0 {
		sigma = DefaultSigma
	}
	if sigma < c {
		sigma = c
	}
	if r := sigma % c; r != 0 {
		sigma += c - r
	}
	n := a.Dim()
	if n == 0 || a.NNZ() == 0 {
		return 0
	}
	lens := make([]int, 0, sigma)
	total := 0
	for w0 := 0; w0 < n; w0 += sigma {
		w1 := w0 + sigma
		if w1 > n {
			w1 = n
		}
		lens = lens[:0]
		for i := w0; i < w1; i++ {
			lens = append(lens, a.RowNNZ(i))
		}
		// Descending sort mirrors SELLFromCSR's window ordering.
		for i := 1; i < len(lens); i++ {
			for j := i; j > 0 && lens[j] > lens[j-1]; j-- {
				lens[j], lens[j-1] = lens[j-1], lens[j]
			}
		}
		for s := 0; s < len(lens); s += c {
			h := len(lens) - s
			if h > c {
				h = c
			}
			total += lens[s] * h // lens[s] is the slice max after the sort
		}
	}
	return float64(total-a.NNZ()) / float64(a.NNZ())
}

// ChooseFormat picks the storage format for a matrix. The padding-ratio
// heuristic prunes SELL; when it survives, CSR and SELL are raced with a
// short measured SpMV probe (min of formatProbeReps, interleaved) and SELL
// wins only past the hysteresis, so noise never trades plain CSR away for a
// sub-2% paper gain. Matrices under formatProbeMinNNZ skip everything and
// keep CSR. ChooseFormat never mutates a.
func ChooseFormat(a *CSR) FormatChoice {
	choice := FormatChoice{Format: "csr"}
	if a.NNZ() < formatProbeMinNNZ {
		return choice
	}
	choice.RowCV = RowLengthCV(a)
	choice.PaddingRatio = EstimatePaddingRatio(a, 0, 0)

	n := a.Dim()
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 + math.Sin(float64(i)*0.37)
	}

	dst := make([]float64, n)
	spmvs := []func(){func() { a.MulVecPar(dst, x) }}
	var se *SELL
	if choice.PaddingRatio <= maxPaddingRatio {
		se = SELLFromCSR(a, 0, 0)
		spmvs = append(spmvs, func() { se.MulVecPar(dst, x) })
	}
	times := probeFormats(spmvs)
	choice.ProbeCSRNs = times[0]
	choice.ProbeChosenNs = times[0]
	if se != nil && float64(times[1]) < formatSwitchHysteres*float64(times[0]) {
		choice.Format = "sell"
		choice.C = se.C()
		choice.Sigma = se.Sigma()
		choice.ProbeChosenNs = times[1]
	}
	return choice
}

// probeFormats times each SpMV closure once per rep, interleaved so
// frequency drift hits every format equally, and returns each one's minimum
// in nanoseconds.
func probeFormats(spmvs []func()) []int64 {
	times := make([]int64, len(spmvs))
	for i := range times {
		times[i] = math.MaxInt64
	}
	// One warm-up sweep faults in the freshly-built operators.
	for _, spmv := range spmvs {
		spmv()
	}
	for r := 0; r < formatProbeReps; r++ {
		for i, spmv := range spmvs {
			//spcglint:ignore determinism measured format probe: timing feeds format choice, never numeric values
			t0 := time.Now()
			spmv()
			//spcglint:ignore determinism measured format probe: timing feeds format choice, never numeric values
			if d := time.Since(t0).Nanoseconds(); d < times[i] {
				times[i] = d
			}
		}
	}
	return times
}
