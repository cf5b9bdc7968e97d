package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismConfig targets the determinism analyzer.
type DeterminismConfig struct {
	// Packages are import paths checked in full: every statement of every
	// non-test file must be free of nondeterminism sources.
	Packages []string
	// LoopPackages are import paths checked only inside loop bodies — the
	// solver package, where setup code may consult maps and clocks but
	// iteration bodies must not.
	LoopPackages []string
}

// Determinism enforces bitwise reproducibility of the numeric hot path: no
// map-range iteration (order is randomized per run), no wall-clock reads, no
// unseeded global math/rand draws, and no ad-hoc goroutine spawns (scheduling
// order changes floating-point summation order) in the configured packages.
// The fused-vs-naive and SELL-vs-CSR parity and the replay determinism the
// tests pin only hold if these sources of run-to-run variation stay out of
// the kernels.
func Determinism(cfg DeterminismConfig) *Analyzer {
	full := stringSet(cfg.Packages)
	loops := stringSet(cfg.LoopPackages)
	a := &Analyzer{
		Name: "determinism",
		Doc:  "no map ranges, clock reads, unseeded rand or goroutine spawns in numeric hot paths",
	}
	a.Run = func(p *Pass) {
		var inLoopOnly bool
		switch {
		case full[p.Pkg.Types.Path()]:
			inLoopOnly = false
		case loops[p.Pkg.Types.Path()]:
			inLoopOnly = true
		default:
			return
		}
		for _, f := range p.Pkg.Files {
			if p.Pkg.IsTestFile(f.Pos()) {
				continue
			}
			walkLoopDepth(f, func(n ast.Node, loopDepth int) {
				active := !inLoopOnly || loopDepth > 0
				switch n := n.(type) {
				case *ast.RangeStmt:
					// The map range is itself a loop; in loop-only mode it
					// counts when nested inside another loop (an iteration
					// body), not when it is setup code at function level.
					if !inLoopOnly || loopDepth > 1 {
						if t := p.Pkg.Info.TypeOf(n.X); t != nil {
							if _, isMap := t.Underlying().(*types.Map); isMap {
								p.Reportf(n.Pos(), "range over map %s iterates in nondeterministic order", typeString(t))
							}
						}
					}
				case *ast.GoStmt:
					if active {
						p.Reportf(n.Pos(), "goroutine spawn in a deterministic hot path; use the worker pool's fixed-chunk dispatch instead")
					}
				case *ast.CallExpr:
					if !active {
						return
					}
					pkgPath, name, ok := pkgFuncOf(p, n)
					if !ok {
						return
					}
					switch {
					case pkgPath == "time" && (name == "Now" || name == "Since"):
						p.Reportf(n.Pos(), "wall-clock read time.%s in a deterministic hot path", name)
					case pkgPath == "math/rand" || pkgPath == "math/rand/v2":
						// Constructors (New, NewSource, NewPCG, ...) build the
						// seeded generators the invariant asks for; only draws
						// and state mutation on the package-level source are
						// nondeterministic across runs.
						if !strings.HasPrefix(name, "New") {
							p.Reportf(n.Pos(), "unseeded global rand.%s; draw from a rand.New(rand.NewSource(seed)) generator instead", name)
						}
					}
				}
			})
		}
	}
	return a
}

// walkLoopDepth walks the AST calling fn with the number of enclosing
// for/range statements (the node itself included when it is a loop).
func walkLoopDepth(root ast.Node, fn func(n ast.Node, loopDepth int)) {
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		if n == nil {
			return
		}
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			depth++
		}
		fn(n, depth)
		d := depth
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil || c == n {
				return true
			}
			walk(c, d)
			return false
		})
	}
	walk(root, 0)
}

func stringSet(ss []string) map[string]bool {
	m := make(map[string]bool, len(ss))
	for _, s := range ss {
		m[s] = true
	}
	return m
}

func typeString(t types.Type) string { return t.String() }
