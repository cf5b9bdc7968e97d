package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"spcg/internal/sparse"
	"spcg/internal/suite"
	"spcg/internal/tune"
	"spcg/internal/vec"
)

// This file benchmarks the autotuning subsystem end to end: for each suite
// matrix it runs the tuner (seed + successive-halving trials), then measures
// full solves for the tuned winner ("auto") and for every static candidate
// the seeder enumerated. The committed BENCH_autotune.json documents the
// acceptance properties:
//
//  1. auto is within 10% of the best static configuration (the tuner's
//     capped probes rank like full solves), and
//  2. auto is strictly faster than the worst converging static configuration
//     (picking blind has a real cost the tuner avoids),
//
// plus the hard invariant the CI smoke asserts: the tuner never selects a
// configuration that broke down in trials.

// AutotuneConfig parameterizes the benchmark.
type AutotuneConfig struct {
	// Matrices are suite names (default thermomech_TC — easy, PCG converges
	// in tens of iterations — and shipsec8 — ill-conditioned, where monomial
	// bases at large s break down).
	Matrices []string
	// Scale divides paper matrix sizes (default 100: ~1000-row stand-ins).
	Scale int
	// Tune configures the tuner itself (probe caps, rounds, candidate grid).
	Tune tune.Config
	// Reps is full-solve repetitions per configuration; min is reported
	// (default 3).
	Reps int
	// MaxIterations caps each full solve (default 5000).
	MaxIterations int
	// Tol is the full-solve relative residual target (default 1e-8).
	Tol float64
}

func (c AutotuneConfig) withDefaults() AutotuneConfig {
	if len(c.Matrices) == 0 {
		c.Matrices = []string{"thermomech_TC", "shipsec8"}
	}
	if c.Scale <= 0 {
		c.Scale = 100
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 5000
	}
	if c.Tol <= 0 {
		c.Tol = 1e-8
	}
	return c
}

// AutotuneSolve is one full (uncapped-tolerance) solve measurement.
type AutotuneSolve struct {
	Candidate  tune.Candidate `json:"candidate"`
	Converged  bool           `json:"converged"`
	Iterations int            `json:"iterations"`
	// ElapsedMS is the minimum over Reps runs.
	ElapsedMS float64 `json:"elapsed_ms"`
	Breakdown string  `json:"breakdown,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// AutotuneRow is the benchmark for one matrix.
type AutotuneRow struct {
	Matrix string  `json:"matrix"`
	N      int     `json:"n"`
	NNZ    int     `json:"nnz"`
	Cond   float64 `json:"cond_estimate"`
	// Winner is the configuration the tuner selected.
	Winner tune.Candidate `json:"winner"`
	// TuneMS is the wall time of the trial schedule (the tuner's overhead).
	TuneMS float64 `json:"tune_ms"`
	Trials int     `json:"trials"`
	Pruned int     `json:"pruned"`
	// Solves holds the full-solve measurement for every static candidate;
	// the winner's entry doubles as the "auto" measurement.
	Solves []AutotuneSolve `json:"solves"`
	// AutoMS is the winner's full solve; Best/WorstStaticMS range over the
	// converged static candidates (the winner included — auto cannot beat
	// the best static, it can only match it).
	AutoMS        float64 `json:"auto_ms"`
	BestStaticMS  float64 `json:"best_static_ms"`
	WorstStaticMS float64 `json:"worst_static_ms"`
	BestStatic    string  `json:"best_static"`
	WorstStatic   string  `json:"worst_static"`
	// AutoVsBest = AutoMS/BestStaticMS (1.0 = tuner found the optimum);
	// AutoVsWorst = AutoMS/WorstStaticMS (how much picking blind can cost).
	AutoVsBest  float64 `json:"auto_vs_best"`
	AutoVsWorst float64 `json:"auto_vs_worst"`
}

// AutotuneSummary aggregates the acceptance checks across matrices.
type AutotuneSummary struct {
	AutoWithin10PctOfBest bool `json:"auto_within_10pct_of_best"`
	AutoBeatsWorstStatic  bool `json:"auto_beats_worst_static"`
	// NoBrokenSelections is the hard invariant: no ranked candidate on any
	// matrix had a breakdown trial.
	NoBrokenSelections bool `json:"no_broken_selections"`
}

// AutotuneResult is the BENCH_autotune.json document.
type AutotuneResult struct {
	Scale   int             `json:"scale"`
	Reps    int             `json:"reps"`
	Rows    []AutotuneRow   `json:"rows"`
	Summary AutotuneSummary `json:"summary"`
}

// RunAutotune executes the benchmark.
func RunAutotune(cfg AutotuneConfig, progress io.Writer) (*AutotuneResult, error) {
	cfg = cfg.withDefaults()
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format+"\n", args...)
		}
	}
	res := &AutotuneResult{Scale: cfg.Scale, Reps: cfg.Reps}
	sum := AutotuneSummary{AutoWithin10PctOfBest: true, AutoBeatsWorstStatic: true, NoBrokenSelections: true}

	for _, name := range cfg.Matrices {
		p, ok := suite.ByName(name)
		if !ok {
			return nil, fmt.Errorf("autotune: unknown suite matrix %q", name)
		}
		a := p.Build(cfg.Scale)
		plan, err := tune.Seed(a, cfg.Tune)
		if err != nil {
			return nil, fmt.Errorf("autotune: seed %s: %w", name, err)
		}
		t0 := time.Now()
		d, err := tune.Run(plan, &tune.DirectRunner{A: a}, cfg.Tune)
		if err != nil {
			return nil, fmt.Errorf("autotune: tune %s: %w", name, err)
		}
		row := AutotuneRow{
			Matrix: name, N: a.Dim(), NNZ: a.NNZ(), Cond: plan.Cond,
			Winner: d.Winner, TuneMS: float64(time.Since(t0).Microseconds()) / 1000,
			Trials: len(d.Trials), Pruned: len(plan.Pruned),
		}
		logf("%s: n=%d κ≈%.3g, tuned in %.0fms (%d trials) -> %s",
			name, row.N, row.Cond, row.TuneMS, row.Trials, d.Winner)

		// The never-select-broken invariant, re-checked from the trial log.
		broken := map[tune.Candidate]bool{}
		for _, tr := range d.Trials {
			if tr.Outcome.Breakdown != "" {
				broken[tr.Candidate] = true
			}
		}
		for _, rc := range d.Ranked {
			if broken[rc.Candidate] {
				sum.NoBrokenSelections = false
			}
		}

		// Full solves: every static candidate the seeder enumerated (the
		// winner is one of them — its row is the "auto" measurement).
		for _, c := range plan.Candidates {
			sv := fullSolve(a, c, cfg)
			row.Solves = append(row.Solves, sv)
			status := fmt.Sprintf("%d iters, %.2fms", sv.Iterations, sv.ElapsedMS)
			if !sv.Converged {
				status = "did not converge"
				if sv.Breakdown != "" {
					status = "breakdown: " + sv.Breakdown
				}
			}
			logf("  %-32s %s", sv.Candidate, status)
			if sv.Candidate == d.Winner {
				row.AutoMS = sv.ElapsedMS
				if !sv.Converged {
					sum.NoBrokenSelections = false // winner must actually solve
				}
			}
			if !sv.Converged {
				continue
			}
			if row.BestStatic == "" || sv.ElapsedMS < row.BestStaticMS {
				row.BestStatic, row.BestStaticMS = sv.Candidate.String(), sv.ElapsedMS
			}
			if row.WorstStatic == "" || sv.ElapsedMS > row.WorstStaticMS {
				row.WorstStatic, row.WorstStaticMS = sv.Candidate.String(), sv.ElapsedMS
			}
		}
		if row.BestStaticMS > 0 {
			row.AutoVsBest = row.AutoMS / row.BestStaticMS
		}
		if row.WorstStaticMS > 0 {
			row.AutoVsWorst = row.AutoMS / row.WorstStaticMS
		}
		if row.AutoVsBest > 1.10 {
			sum.AutoWithin10PctOfBest = false
		}
		// "Strictly better than the worst static" only constrains matrices
		// where the statics actually spread; equality means every converging
		// config ties, and there is nothing for a tuner to win.
		if row.WorstStaticMS > row.BestStaticMS && row.AutoMS >= row.WorstStaticMS {
			sum.AutoBeatsWorstStatic = false
		}
		res.Rows = append(res.Rows, row)
	}
	res.Summary = sum
	return res, nil
}

// fullSolve measures one configuration to convergence (min over Reps).
func fullSolve(a *sparse.CSR, c tune.Candidate, cfg AutotuneConfig) AutotuneSolve {
	sv := AutotuneSolve{Candidate: c}
	run, m, opts, err := c.Resolve(a, &tune.Setup{})
	if err != nil {
		sv.Error = err.Error()
		return sv
	}
	opts.Tol, opts.MaxIterations = cfg.Tol, cfg.MaxIterations
	b := make([]float64, a.Dim())
	vec.Fill(b, 1)

	best := math.MaxFloat64
	for r := 0; r < cfg.Reps; r++ {
		t0 := time.Now()
		_, stats, err := run(a, m, b, opts)
		elapsed := float64(time.Since(t0).Microseconds()) / 1000
		if err != nil {
			o := tune.ProbeOutcome(stats, err, time.Since(t0))
			sv.Breakdown, sv.Error = o.Breakdown, o.Err
			return sv
		}
		if stats.Breakdown != nil {
			sv.Breakdown = stats.Breakdown.Error()
			return sv
		}
		if !stats.Converged {
			sv.Iterations = stats.Iterations
			return sv
		}
		if elapsed < best {
			best, sv.Iterations = elapsed, stats.Iterations
		}
	}
	sv.Converged, sv.ElapsedMS = true, best
	return sv
}

// ValidateAutotune enforces the CI smoke invariants: the tuner must never
// select (or rank) a configuration that broke down, and every winner must
// solve its matrix to convergence.
func ValidateAutotune(res *AutotuneResult) error {
	if !res.Summary.NoBrokenSelections {
		return fmt.Errorf("autotune: a broken-down configuration was selected or ranked")
	}
	for _, row := range res.Rows {
		if row.AutoMS == 0 {
			return fmt.Errorf("autotune: %s: winner %s has no converged full solve", row.Matrix, row.Winner)
		}
	}
	return nil
}

// RenderAutotune prints the benchmark with the acceptance summary.
func RenderAutotune(w io.Writer, res *AutotuneResult) {
	fmt.Fprintf(w, "Autotuning benchmark (scale %d, min of %d full-solve reps)\n", res.Scale, res.Reps)
	for _, row := range res.Rows {
		fmt.Fprintf(w, "\n%s  n=%d nnz=%d κ≈%.3g  (tuned in %.0fms over %d trials, %d pruned)\n",
			row.Matrix, row.N, row.NNZ, row.Cond, row.TuneMS, row.Trials, row.Pruned)
		fmt.Fprintf(w, "  %-34s %10s %8s\n", "configuration", "iters", "time")
		for _, sv := range row.Solves {
			mark := " "
			if sv.Candidate == row.Winner {
				mark = "*"
			}
			if !sv.Converged {
				why := "did not converge"
				if sv.Breakdown != "" {
					why = "breakdown: " + sv.Breakdown
				} else if sv.Error != "" {
					why = sv.Error
				}
				fmt.Fprintf(w, " %s%-34s %s\n", mark, sv.Candidate, why)
				continue
			}
			fmt.Fprintf(w, " %s%-34s %10d %7.2fms\n", mark, sv.Candidate, sv.Iterations, sv.ElapsedMS)
		}
		fmt.Fprintf(w, "  auto %.2fms vs best static %.2fms (%s, ratio %.2f) vs worst static %.2fms (%s, ratio %.2f)\n",
			row.AutoMS, row.BestStaticMS, row.BestStatic, row.AutoVsBest,
			row.WorstStaticMS, row.WorstStatic, row.AutoVsWorst)
	}
	fmt.Fprintf(w, "\nauto within 10%% of best static: %v\n", res.Summary.AutoWithin10PctOfBest)
	fmt.Fprintf(w, "auto beats worst static:        %v\n", res.Summary.AutoBeatsWorstStatic)
	fmt.Fprintf(w, "no broken config selected:      %v\n", res.Summary.NoBrokenSelections)
}
