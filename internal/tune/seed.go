package tune

import (
	"fmt"
	"sort"

	"spcg/internal/dist"
	"spcg/internal/eig"
	"spcg/internal/perfmodel"
	"spcg/internal/precond"
	"spcg/internal/sparse"
)

// Pruned records one candidate the seeder removed statically, with the
// reason (surfaced by /tune and the bench report so pruning is auditable).
type Pruned struct {
	Candidate Candidate `json:"candidate"`
	Reason    string    `json:"reason"`
}

// Plan is the seeder's output: the candidate list ordered best-predicted
// first, plus what was pruned and why.
type Plan struct {
	Fingerprint uint64 `json:"-"`
	// Cond is the κ(A) estimate from the seeding Ritz probe (safety-factor
	// inflated — an ordering signal, not a tight bound).
	Cond float64 `json:"cond"`
	// Candidates is the ranked plan, best predicted configuration first.
	Candidates []Candidate `json:"candidates"`
	// Pruned lists statically rejected configurations.
	Pruned []Pruned `json:"pruned,omitempty"`
}

// Seed enumerates the configured candidate space for matrix a, prunes
// numerically doomed configurations using a cheap spectral probe, ranks the
// survivors by the Table 1 closed-form cost model, and caps the plan at
// MaxCandidates (always retaining a plain-PCG baseline).
func Seed(a *sparse.CSR, cfg Config) (*Plan, error) {
	cfg = cfg.withDefaults()
	plan := &Plan{Fingerprint: a.Fingerprint()}

	// Cheap spectral probe: a short run of (unpreconditioned) PCG-Lanczos
	// gives Ritz bounds on A's spectrum. The resulting κ estimate decides
	// whether fragile monomial bases at large s are admissible at all.
	est, err := eig.RitzFromPCG(a, nil, eig.Options{Iterations: cfg.SpectrumIters})
	if err != nil {
		return nil, fmt.Errorf("tune: spectral probe: %w", err)
	}
	if est.LambdaMin > 0 {
		plan.Cond = est.LambdaMax / est.LambdaMin
	}

	cl, err := dist.NewCluster(dist.DefaultMachine(), cfg.Nodes, a)
	if err != nil {
		return nil, fmt.Errorf("tune: cost model cluster: %w", err)
	}

	type scored struct {
		c     Candidate
		score float64 // modeled seconds per iteration; lower is better
	}
	var ranked []scored
	for _, method := range cfg.Methods {
		for _, prec := range cfg.Preconds {
			spec, err := precond.Parse(prec)
			if err != nil {
				return nil, fmt.Errorf("tune: candidate preconditioner %q: %w", prec, err)
			}
			pf, ph := modelPrecCost(spec, a)
			if method == "pcg" || method == "pcg3" {
				ranked = append(ranked, scored{
					c:     Candidate{Method: method, Precond: spec.Canonical()},
					score: predictPerIter(method, 1, cl, pf, ph, false),
				})
				continue
			}
			for _, s := range cfg.SValues {
				for _, bs := range cfg.Bases {
					c := Candidate{Method: method, S: s, Basis: bs, Precond: spec.Canonical()}
					if bs == "monomial" && s > cfg.MonomialMaxS && plan.Cond > cfg.MonomialCondCutoff {
						plan.Pruned = append(plan.Pruned, Pruned{
							Candidate: c,
							Reason: fmt.Sprintf("monomial basis at s=%d with κ≈%.2g > %.2g: basis vectors align with the dominant eigenvector and the Gram system loses rank (paper §basis conditioning)",
								s, plan.Cond, cfg.MonomialCondCutoff),
						})
						continue
					}
					ranked = append(ranked, scored{
						c:     c,
						score: predictPerIter(method, s, cl, pf, ph, bs != "monomial"),
					})
				}
			}
		}
	}

	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].score < ranked[j].score })

	// Cap the plan, but never drop the last PCG baseline: the trial runner
	// must always have the paper's safe floor available for comparison.
	hasPCG := false
	for i, sc := range ranked {
		if i >= cfg.MaxCandidates && hasPCG {
			break
		}
		if i >= cfg.MaxCandidates && sc.c.Method != "pcg" {
			continue
		}
		if sc.c.Method == "pcg" {
			if hasPCG {
				continue // one baseline is enough; keep plan slots for s-step variants
			}
			hasPCG = true
		}
		plan.Candidates = append(plan.Candidates, sc.c)
	}
	if len(plan.Candidates) == 0 {
		return nil, fmt.Errorf("tune: empty candidate plan (methods=%v)", cfg.Methods)
	}
	return plan, nil
}

// predictPerIter is the ranking signal: Table 1 modeled seconds per
// iteration. Methods without a Table 1 row rank with the plain PCG model.
func predictPerIter(method string, s int, cl *dist.Cluster, precFlops float64, precHalos int, arbitrary bool) float64 {
	alg, ok := perfmodel.ByName(method)
	if !ok {
		alg, s = perfmodel.PCG, 1
	}
	p, err := perfmodel.Predict(alg, s, cl, precFlops, precHalos, arbitrary)
	if err != nil {
		return 0
	}
	return p.Total / float64(s)
}

// modelPrecCost approximates the per-application FLOPs and halo exchanges of
// a preconditioner spec without building it (the seeder must stay cheap).
func modelPrecCost(spec precond.Spec, a *sparse.CSR) (flops float64, halos int) {
	n, nnz := float64(a.Dim()), float64(a.NNZ())
	switch spec.Kind {
	case "identity":
		return 0, 0
	case "jacobi":
		return n, 0
	case "ssor":
		return 2*nnz + 2*n, 2
	case "ic0":
		return 2*nnz + n, 2
	case "blockjacobi":
		bs := n / float64(spec.Blocks)
		return n * bs, 0
	case "chebyshev":
		return float64(spec.Degree) * (2*nnz + 3*n), spec.Degree
	default:
		return n, 0
	}
}
