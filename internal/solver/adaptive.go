package solver

import (
	"errors"
	"math"

	"spcg/internal/precond"
	"spcg/internal/sparse"
)

// SPCGAdaptive runs SPCG with an adaptive block size in the spirit of
// Carson's adaptive s-step CG [paper ref. 2]: it starts at Options.S and,
// whenever the run breaks down or stagnates (no convergence progress), it
// resumes from the current iterate with s halved. At s = 1 the method is
// numerically plain PCG, so the cascade always terminates with PCG-grade
// robustness while keeping the largest stable block size for the easy part
// of the convergence history.
//
// The returned Stats aggregate all phases; Stats.Iterations counts
// PCG-equivalent steps across the cascade and Stats.Restarts counts the s
// reductions.
func SPCGAdaptive(a sparse.Matrix, m precond.Interface, b []float64, opts Options) ([]float64, *Stats, error) {
	opts = opts.withDefaults()
	total := &Stats{BestRelative: math.Inf(1)}
	s := opts.S
	x := opts.X0
	remaining := opts.MaxIterations
	var lastRel = math.Inf(1)

	for {
		phase := opts
		phase.S = s
		phase.X0 = x
		phase.MaxIterations = remaining
		if opts.OnProgress != nil {
			// Rebase each phase's iteration counter so an external observer
			// (the service's stagnation watchdog) sees one monotone stream of
			// cascade-wide progress instead of per-phase restarts from zero.
			base := total.Iterations
			phase.OnProgress = func(it int, rel float64) { opts.OnProgress(base+it, rel) }
		}
		var (
			stats *Stats
			err   error
		)
		if s <= 1 {
			x, stats, err = PCG(a, m, b, phase)
		} else {
			x, stats, err = SPCG(a, m, b, phase)
		}
		if errors.Is(err, ErrCancelled) {
			// Cancelled mid-phase: surface the cascade's aggregate partial
			// stats alongside the error, like the single-method solvers do.
			accumulate(total, stats)
			total.Converged = stats.Converged
			total.FinalRelative = stats.FinalRelative
			total.TrueRelResidual = stats.TrueRelResidual
			return x, total, err
		}
		if err != nil {
			return nil, nil, err
		}
		accumulate(total, stats)
		if stats.Converged || s <= 1 {
			total.Converged = stats.Converged
			total.FinalRelative = stats.FinalRelative
			total.TrueRelResidual = stats.TrueRelResidual
			return x, total, nil
		}
		remaining -= stats.Iterations
		if remaining <= 0 {
			total.FinalRelative = stats.FinalRelative
			total.TrueRelResidual = stats.TrueRelResidual
			return x, total, nil
		}
		// No convergence at this s: breakdown, stagnation or cap. Only keep
		// shrinking while we are making progress or s is still large.
		if stats.FinalRelative >= lastRel && s == 1 {
			total.FinalRelative = stats.FinalRelative
			total.TrueRelResidual = stats.TrueRelResidual
			return x, total, nil
		}
		lastRel = stats.FinalRelative
		s /= 2
		if s < 1 {
			s = 1
		}
		total.Restarts++
	}
}

// accumulate merges per-phase stats into the aggregate.
func accumulate(total, phase *Stats) {
	total.Iterations += phase.Iterations
	total.OuterIterations += phase.OuterIterations
	total.MVProducts += phase.MVProducts
	total.PrecApplies += phase.PrecApplies
	total.Allreduces += phase.Allreduces
	total.AllreduceValues += phase.AllreduceValues
	// SimTime and RetriedMessages are cumulative snapshots of the single
	// tracker shared by all phases, so the latest phase already contains the
	// whole cascade.
	total.SimTime = phase.SimTime
	total.RetriedMessages = phase.RetriedMessages
	total.ResidualReplacements += phase.ResidualReplacements
	total.Restarts += phase.Restarts
	total.DetectedFaults += phase.DetectedFaults
	total.Rollbacks += phase.Rollbacks
	total.Heartbeats += phase.Heartbeats
	// Guard on Heartbeats: a phase that broke down before its first
	// convergence check reports a zero-valued BestRelative that must not
	// clobber the cascade-wide minimum.
	if phase.Heartbeats > 0 && phase.BestRelative < total.BestRelative {
		total.BestRelative = phase.BestRelative
	}
	total.History = append(total.History, phase.History...)
	if phase.Breakdown != nil {
		total.Breakdown = phase.Breakdown
	}
}
