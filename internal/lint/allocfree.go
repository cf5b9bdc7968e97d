package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// AllocfreeConfig targets the allocfree analyzer.
type AllocfreeConfig struct {
	// Packages are the kernel packages to inspect.
	Packages []string
	// FuncPattern is a regular expression selecting the kernel functions by
	// name ("Fused" for the fused kernels).
	FuncPattern string
}

// Allocfree keeps the fused cache-blocked kernels allocation-free in their
// loops: no make or append inside any loop of a fused-kernel function.
// These kernels run millions of times per solve; a per-iteration allocation
// would put the garbage collector on the hot path and destroy the measured
// speedups the benchmark gates pin. Scratch space comes from the callers or
// sync.Pool, sized before the loop.
func Allocfree(cfg AllocfreeConfig) *Analyzer {
	pkgs := stringSet(cfg.Packages)
	kernel := regexp.MustCompile(cfg.FuncPattern)
	a := &Analyzer{
		Name: "allocfree",
		Doc:  "no make/append inside loops of fused-kernel functions",
	}
	a.Run = func(p *Pass) {
		if !pkgs[p.Pkg.Types.Path()] {
			return
		}
		for _, f := range p.Pkg.Files {
			if p.Pkg.IsTestFile(f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !kernel.MatchString(fd.Name.Name) || fd.Body == nil {
					continue
				}
				walkLoopDepth(fd.Body, func(n ast.Node, loopDepth int) {
					if loopDepth == 0 {
						return
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return
					}
					id, ok := call.Fun.(*ast.Ident)
					if !ok || (id.Name != "make" && id.Name != "append") {
						return
					}
					if _, isBuiltin := p.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
						p.Reportf(call.Pos(), "%s inside a loop of fused kernel %s; take scratch from the pool before the loop", id.Name, fd.Name.Name)
					}
				})
			}
		}
	}
	return a
}
