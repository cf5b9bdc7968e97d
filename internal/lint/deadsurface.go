package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// DeadsurfaceConfig targets the deadsurface analyzer.
type DeadsurfaceConfig struct {
	// Dirs are the module-relative directories whose non-test declarations
	// must have a user ("internal", "cmd").
	Dirs []string
	// Deleted is the deny list (internal/lint/deleted.txt): one regular
	// expression per line, then the change that deleted the name and why.
	// Blank lines and lines starting with # are skipped.
	Deleted string
}

// deletedName is one deny-list entry: its pattern and its line, as quoted.
type deletedName struct {
	re    *regexp.Regexp
	entry string
}

// parseDeleted compiles the deny list. The list is committed source, so a
// pattern that does not compile or a line that gives no reason panics.
func parseDeleted(text string) []deletedName {
	var out []deletedName
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pattern, why, _ := strings.Cut(line, " ")
		if why = strings.TrimSpace(why); why == "" {
			panic(fmt.Sprintf("lint: deleted-name list line %d gives no reason after its pattern", i+1))
		}
		out = append(out, deletedName{re: regexp.MustCompile("(?i)" + pattern), entry: pattern + " " + why})
	}
	return out
}

// Deadsurface keeps the module free of code nothing calls, with two checks.
//
// Unreferenced declarations: in the non-test files under cfg.Dirs, an
// exported package-level func, var, const or type, an exported method or an
// exported field of a named struct must be referenced from some non-test
// file of the module, or from another package's tests (a shared fixture);
// its own package's tests do not keep it alive. An unexported package-level
// func, method or type must be referenced at all. A method also counts as
// used when its receiver type implements an interface that non-test code
// uses and that declares the method.
//
// Deleted names stay deleted: every pattern of cfg.Deleted is matched
// case-insensitively against the raw text of every non-test .go file of
// every package directory, comments and strings included, whatever the
// file's build constraints.
func Deadsurface(cfg DeadsurfaceConfig) *Analyzer {
	deleted := parseDeleted(cfg.Deleted)
	a := &Analyzer{
		Name: "deadsurface",
		Doc:  "no declaration without a user; deleted names stay deleted",
	}
	var (
		indexed *Module
		idx     *useIndex
	)
	a.Run = func(p *Pass) {
		if strings.HasSuffix(p.Pkg.Path, "_test") {
			return // the external test unit shares its directory with the package
		}
		checkDeleted(p, deleted)
		dir := filepath.ToSlash(p.Pkg.Dir)
		for _, d := range cfg.Dirs {
			if dir != d && !strings.HasPrefix(dir, d+"/") {
				continue
			}
			if indexed != p.Module {
				indexed, idx = p.Module, buildUseIndex(p.Module)
			}
			for _, f := range p.Pkg.Files {
				if !p.Pkg.IsTestFile(f.Pos()) {
					checkDecls(p, idx, f)
				}
			}
			return
		}
	}
	return a
}

// useIndex is the module-wide record of what references what. Pass 1 and
// pass 2 of LoadModule type-check the same files into different objects, so
// a declaration is keyed by its position, which both passes share (as do a
// generic declaration and its instantiations).
type useIndex struct {
	fset *token.FileSet
	// used holds the declarations a non-test file or another package's
	// test references; ownTest those only their own package's tests do.
	used, ownTest map[token.Pos]bool
	// ifaces are the method sets of the interfaces non-test code uses,
	// keyed by the interface's type string: each method's Id mapped to its
	// signature.
	ifaces map[string]map[string]string
}

func buildUseIndex(m *Module) *useIndex {
	idx := &useIndex{
		fset:    m.Fset,
		used:    make(map[token.Pos]bool),
		ownTest: make(map[token.Pos]bool),
		// fmt and errors call String and Unwrap through a run-time type
		// assertion, so no source of the module names those interfaces.
		ifaces: map[string]map[string]string{
			"fmt.Stringer":  {"String": "func() string"},
			"errors.Unwrap": {"Unwrap": "func() error"},
		},
	}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 {
			return
		}
		methods := make(map[string]string, it.NumMethods())
		for i := 0; i < it.NumMethods(); i++ {
			fn := it.Method(i)
			methods[fn.Id()] = types.TypeString(fn.Type(), (*types.Package).Path)
		}
		idx.ifaces[types.TypeString(it, (*types.Package).Path)] = methods
	}
	for _, pkg := range m.Packages {
		home := strings.TrimSuffix(pkg.Path, "_test")
		for id, obj := range pkg.Info.Uses {
			if obj.Pkg() == nil {
				continue
			}
			switch {
			case !idx.isTest(id.Pos()):
				idx.used[obj.Pos()] = true
				if v, ok := obj.(*types.Var); ok {
					addIface(v.Type()) // a field or parameter of interface type
				}
			case obj.Pkg().Path() != home:
				idx.used[obj.Pos()] = true
			default:
				idx.ownTest[obj.Pos()] = true
			}
		}
		for e, tv := range pkg.Info.Types {
			if tv.Type == nil || idx.isTest(e.Pos()) {
				continue
			}
			addIface(tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := 0; i < tup.Len(); i++ {
						addIface(tup.At(i).Type())
					}
				}
			}
		}
	}
	return idx
}

func (idx *useIndex) isTest(pos token.Pos) bool {
	f := idx.fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// satisfies reports whether fn is a method of a type that implements a used
// interface declaring it: a call through the interface keeps it alive.
func (idx *useIndex) satisfies(fn *types.Func) bool {
	mset := types.NewMethodSet(types.NewPointer(recvType(fn)))
	have := make(map[string]string, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		obj := mset.At(i).Obj()
		have[obj.Id()] = types.TypeString(obj.Type(), (*types.Package).Path)
	}
	for _, methods := range idx.ifaces {
		if _, ok := methods[fn.Id()]; !ok {
			continue
		}
		implements := true
		for id, sig := range methods {
			implements = implements && have[id] == sig
		}
		if implements {
			return true
		}
	}
	return false
}

// recvType is a method's receiver type without its pointer.
func recvType(fn *types.Func) types.Type {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return recv
}

// checkDecls reports the unreferenced declarations of one non-test file.
func checkDecls(p *Pass, idx *useIndex, f *ast.File) {
	report := func(id *ast.Ident, kind, name string) {
		obj := p.Pkg.Info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		exported := id.IsExported()
		if idx.used[obj.Pos()] || (!exported && idx.ownTest[obj.Pos()]) {
			return
		}
		if kind == "method" {
			fn := obj.(*types.Func)
			if idx.satisfies(fn) {
				return
			}
			name = types.TypeString(recvType(fn), func(*types.Package) string { return "" }) + "." + name
		}
		if exported {
			p.Reportf(id.Pos(), "exported %s %s has no user outside its own package's tests; delete it, or move it into the test that uses it", kind, name)
		} else {
			p.Reportf(id.Pos(), "%s %s is never referenced; delete it", kind, name)
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			switch {
			case d.Recv != nil:
				report(d.Name, "method", d.Name.Name)
			case d.Name.Name != "init" && (d.Name.Name != "main" || f.Name.Name != "main"):
				report(d.Name, "func", d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					report(s.Name, "type", s.Name.Name)
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, fld := range st.Fields.List {
							for _, nm := range fld.Names {
								if nm.IsExported() {
									report(nm, "field", s.Name.Name+"."+nm.Name)
								}
							}
						}
					}
				case *ast.ValueSpec:
					for _, nm := range s.Names {
						if nm.IsExported() {
							report(nm, strings.ToLower(d.Tok.String()), nm.Name)
						}
					}
				}
			}
		}
	}
}

// checkDeleted matches the deny list against the raw text of the package
// directory's non-test .go files, including those other build
// configurations compile.
func checkDeleted(p *Pass, deleted []deletedName) {
	files, _ := filepath.Glob(filepath.Join(p.Module.Root, p.Pkg.Dir, "*.go")) // the pattern is well-formed
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			p.reportAt(token.Position{Filename: path}, "cannot read: %v", err)
			continue
		}
		src := string(raw)
		for _, dn := range deleted {
			for _, loc := range dn.re.FindAllStringIndex(src, -1) {
				before := src[:loc[0]]
				pos := token.Position{Filename: path, Line: 1 + strings.Count(before, "\n"),
					Column: len(before) - strings.LastIndex(before, "\n")}
				p.reportAt(pos, "deleted name %q is back (deleted.txt: %s)", src[loc[0]:loc[1]], dn.entry)
			}
		}
	}
}
