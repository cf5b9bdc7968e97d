// Package lint is the repo's first-party static-analysis framework: a small
// analyzer harness over go/parser and go/types, plus the domain analyzers
// that encode this codebase's invariants (determinism of the numeric hot
// path, panic-safety of service goroutines, cancellation polling in solver
// loops, float-comparison hygiene, allocation-free fused kernels,
// metric/route documentation coverage, and no dead or deleted surface).
//
// The framework deliberately depends on nothing outside the standard library:
// packages are loaded with go/parser, resolved with go/types against compiler
// export data located via `go list -export`, and analyzers walk plain ASTs
// reporting positioned diagnostics. See docs/LINT.md for the invariant each
// analyzer enforces and cmd/spcglint for the command-line front end.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Diagnostic is one positioned finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check. Run is invoked once per analysis
// unit (package, including its test units) and reports findings through the
// pass.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics, enable/disable
	// flags and //spcglint:ignore directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run analyzes one unit.
	Run func(*Pass)
}

// Pass carries one (analyzer, package) invocation.
type Pass struct {
	// Module is the loaded module (docs lookups, module path).
	Module *Module
	// Pkg is the unit under analysis.
	Pkg *Package

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportAt(p.Module.Fset.Position(pos), format, args...)
}

// reportAt records a diagnostic at a position that need not belong to a
// parsed file (deadsurface reads files other build configurations compile).
func (p *Pass) reportAt(pos token.Position, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over every analysis unit of the module, applies
// //spcglint:ignore suppressions, and returns the surviving diagnostics in
// position order. Malformed directives are themselves reported under the
// "spcglint" pseudo-analyzer.
func Run(m *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range m.Packages {
		for _, a := range analyzers {
			pass := &Pass{Module: m, Pkg: pkg, analyzer: a, diags: &diags}
			a.Run(pass)
		}
	}
	diags = applyDirectives(m, analyzers, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// DirectivePrefix marks a suppression comment. The full form is
//
//	//spcglint:ignore <analyzer> <reason>
//
// placed on the flagged line or on the line directly above it. The reason is
// mandatory: an unexplained suppression is reported as a violation itself.
const DirectivePrefix = "//spcglint:ignore"

// applyDirectives parses every //spcglint:ignore comment in the module,
// validates it, and drops diagnostics it covers (same file, matching
// analyzer, same line or the line below the directive).
func applyDirectives(m *Module, analyzers []*Analyzer, diags []Diagnostic) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	type key struct {
		file     string
		line     int
		analyzer string
	}
	suppress := make(map[key]bool)
	var malformed []Diagnostic
	seenFile := make(map[string]bool)
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			name := pkg.Filename(f.Pos())
			if seenFile[name] {
				continue // pure files appear in both augmented passes only once, but be safe
			}
			seenFile[name] = true
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, DirectivePrefix)
					if !ok {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					fields := strings.Fields(rest)
					switch {
					case len(fields) == 0:
						malformed = append(malformed, Diagnostic{Pos: pos, Analyzer: "spcglint",
							Message: "ignore directive names no analyzer (want \"//spcglint:ignore <analyzer> <reason>\")"})
						continue
					case !known[fields[0]]:
						malformed = append(malformed, Diagnostic{Pos: pos, Analyzer: "spcglint",
							Message: fmt.Sprintf("ignore directive names unknown analyzer %q", fields[0])})
						continue
					case len(fields) < 2:
						malformed = append(malformed, Diagnostic{Pos: pos, Analyzer: "spcglint",
							Message: fmt.Sprintf("ignore directive for %q gives no reason — say why the invariant does not apply", fields[0])})
						continue
					}
					suppress[key{pos.Filename, pos.Line, fields[0]}] = true
					suppress[key{pos.Filename, pos.Line + 1, fields[0]}] = true
				}
			}
		}
	}
	out := diags[:0]
	for _, d := range diags {
		if suppress[key{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			continue
		}
		out = append(out, d)
	}
	return append(out, malformed...)
}

// ---- shared AST/type helpers used by the analyzers ----

// pkgFuncOf resolves a call's qualified package function: for f(x) written as
// pkg.Fn(x), it returns the imported package path and function name. It
// returns ok=false for method calls, locals, builtins and unresolved names.
func pkgFuncOf(p *Pass, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := p.Pkg.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// stringLit returns the unquoted value of a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// containsCall reports whether the subtree rooted at n contains a call for
// which match returns true. Function literals nested inside n are included:
// a guard installed inside a closure still runs on the spawned goroutine.
func containsCall(n ast.Node, match func(*ast.CallExpr) bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && match(call) {
			found = true
			return false
		}
		return true
	})
	return found
}
