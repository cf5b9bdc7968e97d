// Package tune selects the fastest safe (method, s, basis, preconditioner)
// configuration for a matrix, automatically. It reproduces, as a serving-side
// subsystem, the paper's empirical finding that the winning s-step
// configuration is matrix-dependent: monomial bases break down at large s on
// ill-conditioned operators while Chebyshev survives, and the method/s
// trade-off flips with problem structure.
//
// The subsystem has three layers:
//
//   - a static seeder (Seed) that enumerates the candidate space, prunes
//     numerically doomed configurations using a cheap spectral probe (the
//     existing Ritz machinery — monomial at large s is ruled out when the
//     condition estimate is high), and orders the survivors by the Table 1
//     closed-form cost model (perfmodel.Predict);
//   - an online trial runner (Run) that executes short capped-iteration probe
//     solves through a Runner, scoring wall-clock per decade of residual
//     reduction and promoting candidates successive-halving style; a probe
//     that breaks down or makes no progress eliminates its candidate — an
//     eliminated candidate can never be the winner;
//   - a persistent Store (JSON on disk, atomic rename, versioned schema,
//     LRU-bounded) keyed by matrix fingerprint, so tuned decisions survive
//     daemon restarts.
//
// See docs/TUNING.md for the candidate space, scoring and store schema.
package tune

import (
	"fmt"
	"strings"
)

// Candidate is one solver configuration under consideration. The zero values
// of S and Basis mean "not applicable" (plain PCG has no block size or
// polynomial basis).
type Candidate struct {
	Method  string `json:"method"`
	S       int    `json:"s,omitempty"`
	Basis   string `json:"basis,omitempty"`
	Precond string `json:"precond"`
}

// String renders the candidate compactly: "spcg(s=8,chebyshev)+jacobi".
func (c Candidate) String() string {
	var b strings.Builder
	b.WriteString(c.Method)
	if c.S > 0 {
		fmt.Fprintf(&b, "(s=%d,%s)", c.S, c.Basis)
	}
	b.WriteString("+")
	b.WriteString(c.Precond)
	return b.String()
}

// The fixed part of the candidate space and of the trial budget.
var (
	// candidateMethods are the solver names considered: the Table 1
	// algorithms the serving daemon exposes; plain PCG is always kept as the
	// safe baseline even when pruning.
	candidateMethods = []string{"pcg", "spcg", "capcg", "capcg3"}
	// candidateS are the s-step block sizes tried for s-step methods.
	candidateS = []int{4, 8, 16}
	// candidateBases are the polynomial bases tried: the paper's
	// fragile/robust extremes.
	candidateBases = []string{"monomial", "chebyshev"}
	// candidatePreconds are the preconditioner specs tried.
	candidatePreconds = []string{"jacobi", "ssor"}
)

const (
	// maxCandidates caps the plan after model-based ranking. The PCG
	// baseline survives the cap unconditionally.
	maxCandidates = 10
	// probeTol is the relative tolerance probes solve toward; reaching it
	// early ends the probe.
	probeTol = 1e-8
	// spectrumIters is the length of the seeding Ritz probe.
	spectrumIters = 20
	// rankNodes is the modeled cluster size used for Table 1 ranking: rank
	// by single-node cost, where serving happens.
	rankNodes = 1
	// rounds is the number of successive-halving rounds (40 → 160 → 640
	// iterations at the default ProbeIters).
	rounds = 3
	// monomialCondCutoff is the condition-number estimate above which
	// monomial-basis candidates with S > monomialMaxS are pruned statically.
	// The Ritz probe's safety factors overestimate κ, so the cutoff is
	// deliberately generous.
	monomialCondCutoff = 1e6
	// monomialMaxS is the largest monomial block size allowed on
	// ill-conditioned operators: the paper's observed stability edge for
	// fragile bases.
	monomialMaxS = 4
)

// Config bounds the trial budget. The zero value gets the defaults below.
type Config struct {
	// ProbeIters is the iteration cap of the first trial round (default 40);
	// each successive-halving round multiplies it by 4.
	ProbeIters int
}

func (c Config) withDefaults() Config {
	if c.ProbeIters < 1 {
		c.ProbeIters = 40
	}
	return c
}
