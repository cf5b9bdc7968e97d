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
	// Format pins the sparse storage format ("csr" or "sell"; see
	// sparse.FormatByName). Empty means the serving layer's format selector
	// decides — decisions recorded by the service carry the format its probes
	// actually ran on, so a stored winner replays on the same storage it was
	// measured with. Stored decisions predating this field deserialize with
	// "" and keep selector behaviour, as does any name the engine does not
	// know.
	Format string `json:"format,omitempty"`
}

// String renders the candidate compactly: "spcg(s=8,chebyshev)+jacobi@sell".
func (c Candidate) String() string {
	var b strings.Builder
	b.WriteString(c.Method)
	if c.S > 0 {
		fmt.Fprintf(&b, "(s=%d,%s)", c.S, c.Basis)
	}
	b.WriteString("+")
	b.WriteString(c.Precond)
	if c.Format != "" {
		b.WriteString("@")
		b.WriteString(c.Format)
	}
	return b.String()
}

// Config bounds the candidate space and the trial budget. The zero value
// gets the defaults below.
type Config struct {
	// Methods are the solver names considered (default pcg, spcg, capcg,
	// capcg3 — the Table 1 algorithms the serving daemon exposes; plain PCG
	// is always kept as the safe baseline even when pruning).
	Methods []string
	// SValues are the s-step block sizes tried for s-step methods
	// (default 4, 8, 16).
	SValues []int
	// Bases are the polynomial bases tried (default monomial, chebyshev —
	// the paper's fragile/robust extremes).
	Bases []string
	// Preconds are the preconditioner specs tried (default jacobi, ssor).
	Preconds []string
	// MaxCandidates caps the plan after model-based ranking (default 10).
	// The PCG baseline survives the cap unconditionally.
	MaxCandidates int
	// ProbeIters is the iteration cap of the first trial round (default 40);
	// each successive-halving round multiplies it by 4.
	ProbeIters int
	// Rounds is the number of successive-halving rounds (default 3:
	// 40 → 160 → 640 iterations).
	Rounds int
	// Tol is the relative tolerance probes solve toward; reaching it early
	// ends the probe (default 1e-8).
	Tol float64
	// MonomialCondCutoff is the condition-number estimate above which
	// monomial-basis candidates with S > MonomialMaxS are pruned statically
	// (default 1e6). The Ritz probe's safety factors overestimate κ, so the
	// cutoff is deliberately generous.
	MonomialCondCutoff float64
	// MonomialMaxS is the largest monomial block size allowed on
	// ill-conditioned operators (default 4, the paper's observed stability
	// edge for fragile bases).
	MonomialMaxS int
	// SpectrumIters is the length of the seeding Ritz probe (default 20).
	SpectrumIters int
	// Nodes is the modeled cluster size used for Table 1 ranking
	// (default 1: rank by single-node cost, where serving happens).
	Nodes int
}

func (c Config) withDefaults() Config {
	if len(c.Methods) == 0 {
		c.Methods = []string{"pcg", "spcg", "capcg", "capcg3"}
	}
	if len(c.SValues) == 0 {
		c.SValues = []int{4, 8, 16}
	}
	if len(c.Bases) == 0 {
		c.Bases = []string{"monomial", "chebyshev"}
	}
	if len(c.Preconds) == 0 {
		c.Preconds = []string{"jacobi", "ssor"}
	}
	if c.MaxCandidates < 1 {
		c.MaxCandidates = 10
	}
	if c.ProbeIters < 1 {
		c.ProbeIters = 40
	}
	if c.Rounds < 1 {
		c.Rounds = 3
	}
	if c.Tol <= 0 {
		c.Tol = 1e-8
	}
	if c.MonomialCondCutoff <= 0 {
		c.MonomialCondCutoff = 1e6
	}
	if c.MonomialMaxS < 1 {
		c.MonomialMaxS = 4
	}
	if c.SpectrumIters < 1 {
		c.SpectrumIters = 20
	}
	if c.Nodes < 1 {
		c.Nodes = 1
	}
	return c
}
