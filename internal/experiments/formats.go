package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"spcg/internal/basis"
	"spcg/internal/pool"
	"spcg/internal/solver"
	"spcg/internal/sparse"
	"spcg/internal/suite"
)

// This file benchmarks the structure-adaptive storage engine: every suite
// matrix is stored as CSR and as SELL-C-σ, the hot SpMV (MulVecPar) is timed
// on each, and the format selector's pick is graded against the measured
// truth. Three acceptance properties ride on the output (ValidateFormats
// enforces them, and `spcgbench formats` exits non-zero when they fail):
//
//  1. the selected format never loses more than 5% to plain CSR anywhere
//     (the selector probes CSR as a candidate with hysteresis in its
//     favour, so this holds by construction up to measurement noise);
//  2. on the full suite the selector moves off plain CSR and wins on at
//     least a third of the matrices (the irregular half of the suite is
//     where SELL's C independent accumulator chains pay);
//  3. solver numerics are bit-identical between CSR and SELL: SELL stores
//     each row's entries in the same ascending-column order CSR does, so
//     per-row sums accumulate identically and a capped
//     sPCG run must report exactly the same iteration count and residuals.

// FormatsConfig parameterizes the sweep.
type FormatsConfig struct {
	// Scale divides the paper's matrix sizes (default 8 — larger stand-ins
	// than the table sweeps, so SpMV leaves cache and format matters).
	Scale int
	// Reps is the timing repetition count per format (default 7; min is
	// reported).
	Reps int
	// S is the s-step block size for the numerics-parity solves (default 8).
	S int
	// MaxIterations caps the parity solves (default 40; parity is judged on
	// the capped trajectory, convergence is not required).
	MaxIterations int
	// Only restricts the sweep to these suite matrices (default all 40).
	Only []string
}

func (c FormatsConfig) withDefaults() FormatsConfig {
	if c.Scale <= 0 {
		c.Scale = 8
	}
	if c.Reps <= 0 {
		c.Reps = 7
	}
	if c.S <= 0 {
		c.S = 8
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 40
	}
	return c
}

// FormatRow is one matrix's measurements.
type FormatRow struct {
	Name  string `json:"name"`
	Class string `json:"class"`
	N     int    `json:"n"`
	NNZ   int    `json:"nnz"`

	// Structure statistics that feed the selector's pruning heuristic.
	RowCV        float64 `json:"row_cv"`
	PaddingRatio float64 `json:"padding_ratio"`

	// Min-of-reps MulVecPar times for the two formats.
	CSRNs  int64 `json:"csr_ns"`
	SellNs int64 `json:"sell_ns"`

	// Best is the faster of the two by measurement; BestSpeedup is
	// csr_ns / best_ns (≥ 1 by definition).
	Best        string  `json:"best"`
	BestSpeedup float64 `json:"best_speedup"`

	// Selected is the format selector's pick for this matrix;
	// SelectedVsCSR is csr_ns / selected_ns (> 1 = the pick beats CSR),
	// SelectorEff is best_ns / selected_ns (1.0 = the pick was optimal).
	Selected      string  `json:"selected"`
	SelectedNs    int64   `json:"selected_ns"`
	SelectedVsCSR float64 `json:"selected_vs_csr"`
	SelectorEff   float64 `json:"selector_eff"`

	// NumericsMatch reports whether capped sPCG runs on CSR and SELL agreed
	// exactly (iterations and residuals); Iterations is that count, for
	// context.
	Iterations    int  `json:"iterations"`
	NumericsMatch bool `json:"numerics_match"`
}

// FormatsSummary aggregates the acceptance checks.
type FormatsSummary struct {
	Problems int `json:"problems"`
	// SelectedWins counts matrices where the selector moved off plain CSR
	// and the pick measured faster than CSR.
	SelectedWins        int     `json:"selected_wins"`
	SelectedWinFraction float64 `json:"selected_win_fraction"`
	// WorstSelectedVsCSR is the minimum of selected-vs-CSR across the sweep
	// (acceptance: ≥ 0.95, i.e. the engine never costs more than 5%).
	WorstSelectedVsCSR float64 `json:"worst_selected_vs_csr"`
	MeanSelectedVsCSR  float64 `json:"mean_selected_vs_csr"`
	// WorstSelectorEff is the minimum of best-vs-selected across the sweep:
	// how far from the measured optimum the selector's worst pick landed.
	WorstSelectorEff  float64 `json:"worst_selector_eff"`
	NumericsIdentical bool    `json:"numerics_identical"`
}

// FormatsResult is one run of the sweep; BENCH_formats.json holds one per
// recorded GOMAXPROCS.
type FormatsResult struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	Workers    int            `json:"workers"`
	Scale      int            `json:"scale"`
	Reps       int            `json:"reps"`
	S          int            `json:"s"`
	C          int            `json:"c"`
	Sigma      int            `json:"sigma"`
	Rows       []FormatRow    `json:"rows"`
	Summary    FormatsSummary `json:"summary"`
}

// minTimeN times every function interleaved — f0, f1, …, f0, f1, … — so
// frequency or load drift hits all formats equally, and returns each
// function's minimum over reps (after one warm-up call each).
func minTimeN(reps int, fns []func()) []int64 {
	out := make([]int64, len(fns))
	for i, f := range fns {
		f()
		out[i] = math.MaxInt64
	}
	for r := 0; r < reps; r++ {
		for i, f := range fns {
			t0 := time.Now()
			f()
			if d := time.Since(t0).Nanoseconds(); d < out[i] {
				out[i] = d
			}
		}
	}
	for i := range out {
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}

// parityStats captures the exactly-comparable subset of a capped solve.
type parityStats struct {
	iters    int
	ok       bool
	finalRel float64
	trueRel  float64
}

// runParity executes one capped sPCG run on the given storage of the setup's
// matrix and returns the comparable stats.
func runParity(st *problemSetup, op sparse.Matrix, s, maxIters int) parityStats {
	opts := solver.Options{
		S:             s,
		Basis:         basis.Chebyshev,
		Tol:           1e-9,
		MaxIterations: maxIters,
		Spectrum:      st.spectrum,
	}
	_, stats, err := solver.SPCG(op, st.m, st.b, opts)
	p := parityStats{ok: err == nil}
	if stats != nil {
		p.iters = stats.Iterations
		p.finalRel = stats.FinalRelative
		p.trueRel = stats.TrueRelResidual
	}
	return p
}

// RunFormats executes the storage sweep at the current GOMAXPROCS.
func RunFormats(cfg FormatsConfig, progress io.Writer) (*FormatsResult, error) {
	cfg = cfg.withDefaults()
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format+"\n", args...)
		}
	}

	problems := suite.All()
	if len(cfg.Only) > 0 {
		problems = problems[:0]
		for _, name := range cfg.Only {
			p, ok := suite.ByName(name)
			if !ok {
				return nil, fmt.Errorf("formats: unknown matrix %q", name)
			}
			problems = append(problems, p)
		}
	}

	res := &FormatsResult{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    pool.Default().Workers(),
		Scale:      cfg.Scale,
		Reps:       cfg.Reps,
		S:          cfg.S,
		C:          sparse.DefaultSliceHeight,
		Sigma:      sparse.DefaultSigma,
	}
	sum := FormatsSummary{
		WorstSelectedVsCSR: math.Inf(1),
		WorstSelectorEff:   math.Inf(1),
		NumericsIdentical:  true,
	}

	for _, p := range problems {
		a := p.Build(cfg.Scale)
		n := a.Dim()
		row := FormatRow{
			Name: p.Name, Class: p.Class, N: n, NNZ: a.NNZ(),
			RowCV:        sparse.RowLengthCV(a),
			PaddingRatio: sparse.EstimatePaddingRatio(a, 0, 0),
		}
		se := sparse.SELLFromCSR(a, 0, 0)

		x := make([]float64, n)
		fillDet(x, 11)
		dst := make([]float64, n)

		times := minTimeN(cfg.Reps, []func(){
			func() { a.MulVecPar(dst, x) },
			func() { se.MulVecPar(dst, x) },
		})
		row.CSRNs, row.SellNs = times[0], times[1]
		byName := map[string]int64{"csr": row.CSRNs, "sell": row.SellNs}

		row.Best = "csr"
		if row.SellNs < row.CSRNs {
			row.Best = "sell"
		}
		row.BestSpeedup = float64(row.CSRNs) / float64(byName[row.Best])

		// Grade the selector against the measured truth: its pick is scored
		// with this sweep's timings, not its own internal probe.
		row.Selected = sparse.ChooseFormat(a).Format
		row.SelectedNs = byName[row.Selected]
		row.SelectedVsCSR = float64(row.CSRNs) / float64(row.SelectedNs)
		row.SelectorEff = float64(byName[row.Best]) / float64(row.SelectedNs)

		// Numerics parity: capped sPCG on CSR vs SELL must agree exactly
		// (same setup object ⇒ same RHS, preconditioner and spectrum; only
		// the storage differs).
		st, err := newSetup(a, "jacobi", 0)
		if err != nil {
			return nil, fmt.Errorf("formats: %s: %w", p.Name, err)
		}
		pc := runParity(st, a, cfg.S, cfg.MaxIterations)
		row.Iterations = pc.iters
		row.NumericsMatch = pc == runParity(st, se, cfg.S, cfg.MaxIterations)

		res.Rows = append(res.Rows, row)
		sum.Problems++
		if row.Selected != "csr" && row.SelectedVsCSR > 1 {
			sum.SelectedWins++
		}
		if row.SelectedVsCSR < sum.WorstSelectedVsCSR {
			sum.WorstSelectedVsCSR = row.SelectedVsCSR
		}
		if row.SelectorEff < sum.WorstSelectorEff {
			sum.WorstSelectorEff = row.SelectorEff
		}
		sum.MeanSelectedVsCSR += row.SelectedVsCSR
		sum.NumericsIdentical = sum.NumericsIdentical && row.NumericsMatch
		logf("formats: %-14s n=%-7d csr=%7.1fµs sell=%7.1fµs  selected=%-4s (%.2fx vs csr, numerics=%v)",
			p.Name, n, float64(row.CSRNs)/1e3, float64(row.SellNs)/1e3,
			row.Selected, row.SelectedVsCSR, row.NumericsMatch)
	}

	if sum.Problems > 0 {
		sum.SelectedWinFraction = float64(sum.SelectedWins) / float64(sum.Problems)
		sum.MeanSelectedVsCSR /= float64(sum.Problems)
	} else {
		sum.WorstSelectedVsCSR = 0
		sum.WorstSelectorEff = 0
	}
	res.Summary = sum
	return res, nil
}

// ValidateFormats enforces the acceptance properties. The no-regression
// bound and numerics parity apply to every sweep, including CI's small
// banded-stencil smoke subset; the win-fraction criterion only applies when
// the sweep is big enough to represent the suite's structural mix (a
// hand-picked banded subset is exactly where the selector should keep CSR
// everywhere).
func ValidateFormats(res *FormatsResult) error {
	if !res.Summary.NumericsIdentical {
		for _, r := range res.Rows {
			if !r.NumericsMatch {
				return fmt.Errorf("formats: %s: SELL solve diverged from CSR (numerics must be bit-identical)", r.Name)
			}
		}
	}
	if res.Summary.WorstSelectedVsCSR < 0.95 {
		return fmt.Errorf("formats: selected format loses %.1f%% to plain CSR somewhere (bound: 5%%)",
			(1-res.Summary.WorstSelectedVsCSR)*100)
	}
	if res.Summary.Problems >= 20 && res.Summary.SelectedWinFraction < 1.0/3.0 {
		return fmt.Errorf("formats: selector wins on %d/%d matrices (acceptance: ≥ 1/3 of the suite)",
			res.Summary.SelectedWins, res.Summary.Problems)
	}
	return nil
}

// RenderFormats prints the sweep as a table plus the acceptance summary.
func RenderFormats(w io.Writer, res *FormatsResult) {
	fmt.Fprintf(w, "Storage format benchmark (scale 1/%d, workers=%d, C=%d, σ=%d, min of %d reps)\n\n",
		res.Scale, res.Workers, res.C, res.Sigma, res.Reps)
	fmt.Fprintf(w, "%-14s %-8s %8s %9s %5s %5s %9s %9s  %-8s %7s %4s\n",
		"matrix", "class", "n", "nnz", "cv", "pad",
		"csr", "sell", "selected", "vs_csr", "num")
	for _, r := range res.Rows {
		num := "ok"
		if !r.NumericsMatch {
			num = "FAIL"
		}
		fmt.Fprintf(w, "%-14s %-8s %8d %9d %5.2f %4.0f%% %8.1fµ %8.1fµ  %-8s %6.2fx %4s\n",
			r.Name, r.Class, r.N, r.NNZ, r.RowCV, r.PaddingRatio*100,
			float64(r.CSRNs)/1e3, float64(r.SellNs)/1e3,
			r.Selected, r.SelectedVsCSR, num)
	}
	s := res.Summary
	fmt.Fprintf(w, "\nselector wins:        %d/%d matrices (%.0f%%)\n",
		s.SelectedWins, s.Problems, s.SelectedWinFraction*100)
	fmt.Fprintf(w, "selected vs csr:      worst %.2fx, mean %.2fx\n",
		s.WorstSelectedVsCSR, s.MeanSelectedVsCSR)
	fmt.Fprintf(w, "selector efficiency:  worst %.2fx of measured optimum\n", s.WorstSelectorEff)
	fmt.Fprintf(w, "numerics identical:   %v\n", s.NumericsIdentical)
}
