package tune

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"spcg/internal/precond"
	"spcg/internal/solver"
	"spcg/internal/sparse"
)

// Outcome is what one probe solve of one candidate reports.
type Outcome struct {
	Iterations int     `json:"iterations"`
	Relative   float64 `json:"relative"` // final relative criterion value
	ElapsedMS  float64 `json:"elapsed_ms"`
	Converged  bool    `json:"converged"`
	// Breakdown is the numerical-breakdown description when the probe died
	// (rank-deficient Gram system, non-positive curvature, ...). A candidate
	// with any breakdown is eliminated and can never win.
	Breakdown string `json:"breakdown,omitempty"`
	// Err is a non-numerical probe failure (setup error, cancellation).
	Err string `json:"err,omitempty"`
}

// Trial is one scored probe in the successive-halving schedule.
type Trial struct {
	Round     int       `json:"round"`
	IterCap   int       `json:"iter_cap"`
	Candidate Candidate `json:"candidate"`
	Outcome   Outcome   `json:"outcome"`
	// Score is elapsed milliseconds per decade of residual reduction (lower
	// is better); 0 for eliminated trials (see Eliminated).
	Score float64 `json:"score,omitempty"`
	// Eliminated is the reason this trial knocked its candidate out.
	Eliminated string `json:"eliminated,omitempty"`
}

// Runner executes one capped probe solve for a candidate. The service
// implements it over its setup cache; DirectRunner runs the same resolution
// on an in-memory matrix for experiments, the benchmark and tests.
type Runner interface {
	Probe(c Candidate, maxIters int, tol float64) Outcome
}

// score converts an outcome into milliseconds per decade of residual
// reduction. Breakdown, error, or no measurable progress eliminates the
// candidate (second return non-empty).
func score(o Outcome) (float64, string) {
	if o.Breakdown != "" {
		return 0, "breakdown: " + o.Breakdown
	}
	if o.Err != "" {
		return 0, "probe error: " + o.Err
	}
	if !(o.Relative > 0) || o.Relative >= 1 {
		return 0, fmt.Sprintf("no residual progress (relative %.3g after %d iterations)", o.Relative, o.Iterations)
	}
	decades := -math.Log10(o.Relative)
	if decades < 0.1 {
		decades = 0.1 // floor so near-stagnant probes score terribly, not infinitely
	}
	elapsed := o.ElapsedMS
	if elapsed <= 0 {
		elapsed = 1e-3 // sub-resolution probe on a tiny matrix; keep ordering by decades
	}
	return elapsed / decades, ""
}

// Run executes the plan's candidates through r with successive halving:
// every survivor is probed at the round's iteration cap, scored, the field
// is halved, and the cap quadruples. Eliminated candidates (breakdown, no
// progress) never advance and never win. The returned Decision is not yet
// persisted — callers Put it into a Store.
func Run(plan *Plan, r Runner, cfg Config) (*Decision, error) {
	cfg = cfg.withDefaults()
	if len(plan.Candidates) == 0 {
		return nil, errors.New("tune: empty plan")
	}
	d := &Decision{
		Fingerprint: FpString(plan.Fingerprint),
		Cond:        plan.Cond,
		Source:      "tuned",
		CreatedUnix: time.Now().Unix(),
	}

	type standing struct {
		c     Candidate
		score float64
	}
	field := make([]standing, 0, len(plan.Candidates))
	for _, c := range plan.Candidates {
		field = append(field, standing{c: c})
	}

	cap_ := cfg.ProbeIters
	for round := 0; round < cfg.Rounds && len(field) > 0; round++ {
		for i := range field {
			o := r.Probe(field[i].c, cap_, cfg.Tol)
			t := Trial{Round: round, IterCap: cap_, Candidate: field[i].c, Outcome: o}
			t.Score, t.Eliminated = score(o)
			d.Trials = append(d.Trials, t)
			field[i].score = t.Score
		}
		// Drop eliminated candidates, then keep the better half (floor 1).
		kept := field[:0]
		for _, st := range field {
			if eliminatedIn(d.Trials, st.c) == "" {
				kept = append(kept, st)
			}
		}
		field = kept
		sort.SliceStable(field, func(i, j int) bool { return field[i].score < field[j].score })
		if round < cfg.Rounds-1 {
			half := (len(field) + 1) / 2
			if half < 1 {
				half = 1
			}
			field = field[:half]
			cap_ *= 4
		}
	}

	if len(field) == 0 {
		return nil, fmt.Errorf("tune: every candidate was eliminated (%d trials)", len(d.Trials))
	}
	for _, st := range field {
		d.Ranked = append(d.Ranked, RankedCandidate{Candidate: st.c, Score: st.score})
	}
	d.Winner = d.Ranked[0].Candidate
	return d, nil
}

// eliminatedIn reports the elimination reason recorded for c, if any.
func eliminatedIn(trials []Trial, c Candidate) string {
	for _, t := range trials {
		if t.Candidate == c && t.Eliminated != "" {
			return t.Eliminated
		}
	}
	return ""
}

// DirectRunner probes candidates against an in-memory matrix, keeping one
// Setup per canonical preconditioner spec so the trial schedule builds each
// preconditioner and spectral estimate once. Candidates resolve through
// Candidate.Resolve, exactly as the daemon serves them. Safe for sequential
// use; Probe is not called concurrently by Run.
type DirectRunner struct {
	A *sparse.CSR
	// B is the probe right-hand side (default: all ones).
	B []float64
	// Cancel aborts in-flight probes (optional; wired to the daemon's base
	// context when the service tunes in the background).
	Cancel <-chan struct{}

	setups map[string]*Setup
}

func (r *DirectRunner) rhs() []float64 {
	if r.B != nil {
		return r.B
	}
	b := make([]float64, r.A.Dim())
	for i := range b {
		b[i] = 1
	}
	r.B = b
	return b
}

// Probe runs one capped solve of the candidate configuration.
func (r *DirectRunner) Probe(c Candidate, maxIters int, tol float64) Outcome {
	spec, err := precond.Parse(c.Precond)
	if err != nil {
		return Outcome{Err: err.Error()}
	}
	st := r.setups[spec.Canonical()]
	if st == nil {
		if r.setups == nil {
			r.setups = map[string]*Setup{}
		}
		st = &Setup{}
		r.setups[spec.Canonical()] = st
	}
	solve, m, opts, err := c.Resolve(r.A, st)
	if err != nil {
		return Outcome{Err: err.Error()}
	}
	opts.Tol, opts.MaxIterations, opts.Cancel = tol, maxIters, r.Cancel

	t0 := time.Now()
	_, stats, err := solve(r.A, m, r.rhs(), opts)
	return ProbeOutcome(stats, err, time.Since(t0))
}

// ProbeOutcome folds a solver result into an Outcome, classifying numerical
// breakdowns (whether surfaced as Stats.Breakdown with a best-effort iterate
// or as an error wrapping solver.ErrBreakdown) separately from operational
// failures.
func ProbeOutcome(stats *solver.Stats, err error, elapsed time.Duration) Outcome {
	o := Outcome{ElapsedMS: float64(elapsed) / float64(time.Millisecond)}
	if stats != nil {
		o.Iterations = stats.Iterations
		o.Relative = stats.FinalRelative
		o.Converged = stats.Converged
		if stats.Breakdown != nil {
			o.Breakdown = stats.Breakdown.Error()
		}
	}
	if err != nil {
		if errors.Is(err, solver.ErrBreakdown) {
			o.Breakdown = err.Error()
		} else {
			o.Err = err.Error()
		}
	}
	return o
}
