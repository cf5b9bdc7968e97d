package lint

import (
	"go/ast"
	"go/types"
)

// CancelpollConfig targets the cancelpoll analyzer.
type CancelpollConfig struct {
	// Package is the solver package's import path.
	Package string
	// RegistryVar names the package-level name → function map registering
	// the served solvers ("methods").
	RegistryVar string
	// CheckCall is the method name whose call marks a convergence check
	// ("done" — the checker method that also fires the progress heartbeat).
	CheckCall string
	// PollCalls are the accepted cancellation polls ("cancelled").
	PollCalls []string
}

// Cancelpoll enforces the serving layer's cooperative-cancellation contract:
// in every solver reachable from the method registry, a loop that evaluates
// the convergence criterion (and thereby fires the heartbeat) must also poll
// Options.Cancel. A convergence loop that cannot be cancelled would pin a
// worker until MaxIterations even after its request's deadline fired, and the
// stagnation watchdog's kill would not take effect — the service's timeout
// and watchdog semantics silently rely on this per-loop poll.
func Cancelpoll(cfg CancelpollConfig) *Analyzer {
	polls := stringSet(cfg.PollCalls)
	a := &Analyzer{
		Name: "cancelpoll",
		Doc:  "convergence loops in registered solvers must poll cancellation",
	}
	a.Run = func(p *Pass) {
		if p.Pkg.Types.Path() != cfg.Package {
			return
		}
		// Registered solver entry points, by function object.
		roots := registryFuncs(p, cfg.RegistryVar)
		if len(roots) == 0 {
			return
		}
		decls, calls := packageCallGraph(p)
		// Transitive closure of package-local callees.
		reach := make(map[*types.Func]bool)
		var visit func(fn *types.Func)
		visit = func(fn *types.Func) {
			if fn == nil || reach[fn] {
				return
			}
			reach[fn] = true
			for _, callee := range calls[fn] {
				visit(callee)
			}
		}
		for _, fn := range roots {
			visit(fn)
		}

		isLocalCall := func(names map[string]bool, c *ast.CallExpr) bool {
			var id *ast.Ident
			switch fun := c.Fun.(type) {
			case *ast.SelectorExpr:
				id = fun.Sel
			case *ast.Ident:
				id = fun
			default:
				return false
			}
			if !names[id.Name] {
				return false
			}
			fn, ok := p.Pkg.Info.Uses[id].(*types.Func)
			return ok && fn.Pkg() == p.Pkg.Types
		}
		check := map[string]bool{cfg.CheckCall: true}

		for fn, decl := range decls {
			if !reach[fn] {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				var body ast.Node
				switch n := n.(type) {
				case *ast.ForStmt:
					body = n.Body
				case *ast.RangeStmt:
					body = n.Body
				default:
					return true
				}
				hasCheck := containsCall(body, func(c *ast.CallExpr) bool { return isLocalCall(check, c) })
				if !hasCheck {
					return true
				}
				hasPoll := containsCall(body, func(c *ast.CallExpr) bool { return isLocalCall(polls, c) })
				if !hasPoll {
					p.Reportf(n.Pos(), "convergence loop (calls %s) never polls %s — the solve cannot be cancelled or watchdog-killed", cfg.CheckCall, pollNames(cfg.PollCalls))
				}
				return true
			})
		}
	}
	return a
}

// registryFuncs resolves the function objects named as values of the
// package-level registry map literal (var methods = map[string]Method{...}).
func registryFuncs(p *Pass, varName string) []*types.Func {
	var out []*types.Func
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != varName || i >= len(vs.Values) {
						continue
					}
					cl, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok {
						continue
					}
					for _, elt := range cl.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if id, ok := kv.Value.(*ast.Ident); ok {
							if fn, ok := p.Pkg.Info.Uses[id].(*types.Func); ok {
								out = append(out, fn)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// packageCallGraph maps every function/method declared in the unit to its
// declaration and to the package-local functions it references — called or
// passed on as a value: the solver entry points hand their algorithm body to
// a shared runner, and that body's loops are the ones to check.
func packageCallGraph(p *Pass) (map[*types.Func]*ast.FuncDecl, map[*types.Func][]*types.Func) {
	decls := make(map[*types.Func]*ast.FuncDecl)
	calls := make(map[*types.Func][]*types.Func)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			ast.Inspect(fd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if callee, ok := p.Pkg.Info.Uses[id].(*types.Func); ok && callee.Pkg() == p.Pkg.Types {
						calls[fn] = append(calls[fn], callee)
					}
				}
				return true
			})
		}
	}
	return decls, calls
}

func pollNames(names []string) string {
	switch len(names) {
	case 0:
		return "a cancellation hook"
	case 1:
		return names[0] + "()"
	default:
		out := names[0] + "()"
		for _, n := range names[1:] {
			out += " or " + n + "()"
		}
		return out
	}
}
