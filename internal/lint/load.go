package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked analysis unit: either a package together with
// its in-package _test.go files, or a package's external _test package. The
// split mirrors how the go tool compiles tests, so analyzers see exactly the
// code that ships plus exactly the code that tests it.
type Package struct {
	// Path is the unit's import path; external test units carry a "_test"
	// suffix ("spcg/internal/vec_test").
	Path string
	// Dir is the package directory relative to the module root.
	Dir string
	// Files are the parsed sources, with comments.
	Files []*ast.File
	// Types and Info hold the go/types results for the unit.
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-check problems without aborting the load;
	// a non-empty list means analyzer results for this unit may be
	// incomplete.
	TypeErrors []error

	fset *token.FileSet
}

// Filename returns the name of the file containing pos.
func (p *Package) Filename(pos token.Pos) string {
	return p.fset.Position(pos).Filename
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func (p *Package) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Filename(pos), "_test.go")
}

// Module is a fully loaded and type-checked Go module.
type Module struct {
	// Root is the absolute path of the module root (the go.mod directory).
	Root string
	// Path is the module path from go.mod.
	Path string
	// Fset positions every file in the module.
	Fset *token.FileSet
	// Packages are the analysis units in deterministic (sorted, dependency
	// respecting) order.
	Packages []*Package
}

// dirUnit is one package directory during loading.
type dirUnit struct {
	dir     string // relative to root
	path    string // import path
	pure    []*ast.File
	inTest  []*ast.File
	extTest []*ast.File
}

// LoadModule parses and type-checks every package of the module rooted at
// root (the directory containing go.mod). Dependencies outside the module —
// the standard library — are resolved from compiler export data located via
// `go list -export`, so the loader needs no source for them and no modules
// beyond the target. testdata, vendor, hidden directories and nested modules
// are skipped, exactly like `./...`.
func LoadModule(root string) (*Module, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(absRoot)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	units, err := parseTree(fset, absRoot, modPath)
	if err != nil {
		return nil, err
	}

	exports, err := exportData(absRoot)
	if err != nil {
		return nil, err
	}

	res := &resolver{
		modPath:  modPath,
		internal: make(map[string]*types.Package),
		gc:       importer.ForCompiler(fset, "gc", lookupFunc(exports)),
	}

	order, err := topoOrder(units, modPath)
	if err != nil {
		return nil, err
	}

	m := &Module{Root: absRoot, Path: modPath, Fset: fset}

	// Pass 1: type-check the pure (non-test) files of every package in
	// dependency order; these become the import sources for everything else.
	pureChecked := make(map[string]*types.Package, len(order))
	for _, u := range order {
		if len(u.pure) == 0 {
			continue
		}
		pkg, _, _ := check(fset, u.path, u.pure, res)
		pureChecked[u.path] = pkg
		res.internal[u.path] = pkg
	}

	// Pass 2: build the analysis units. The augmented unit re-checks the
	// pure files together with the in-package test files (this is the unit
	// analyzers see); the external unit checks the foo_test package against
	// the augmented types so export_test.go-style helpers resolve.
	for _, u := range order {
		files := append(append([]*ast.File{}, u.pure...), u.inTest...)
		if len(files) > 0 {
			pkg, info, errs := check(fset, u.path, files, res)
			m.Packages = append(m.Packages, &Package{
				Path: u.path, Dir: u.dir, Files: files,
				Types: pkg, Info: info, TypeErrors: errs, fset: fset,
			})
			if len(u.extTest) > 0 {
				res.override = map[string]*types.Package{u.path: pkg}
			}
		}
		if len(u.extTest) > 0 {
			pkg, info, errs := check(fset, u.path+"_test", u.extTest, res)
			res.override = nil
			m.Packages = append(m.Packages, &Package{
				Path: u.path + "_test", Dir: u.dir, Files: u.extTest,
				Types: pkg, Info: info, TypeErrors: errs, fset: fset,
			})
		}
	}
	return m, nil
}

// modulePath reads the module directive from root/go.mod.
func modulePath(root string) (string, error) {
	raw, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: not a module root: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			if p := strings.TrimSpace(rest); p != "" {
				return strings.Trim(p, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// parseTree walks the module tree and parses every package directory.
func parseTree(fset *token.FileSet, root, modPath string) ([]*dirUnit, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root {
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	var units []*dirUnit
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, dir)
		u := &dirUnit{dir: rel, path: importPath(modPath, rel)}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				continue
			}
			// Only the files the default build compiles: a package may hold
			// one implementation per architecture or build tag
			// (internal/vec's kernel_amd64.go and kernel_noasm.go).
			if ok, err := build.Default.MatchFile(dir, name); err != nil {
				return nil, fmt.Errorf("lint: build constraints of %s: %w", filepath.Join(rel, name), err)
			} else if !ok {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: parse %s: %w", filepath.Join(rel, name), err)
			}
			switch {
			case !strings.HasSuffix(name, "_test.go"):
				u.pure = append(u.pure, f)
			case strings.HasSuffix(f.Name.Name, "_test"):
				u.extTest = append(u.extTest, f)
			default:
				u.inTest = append(u.inTest, f)
			}
		}
		if len(u.pure)+len(u.inTest)+len(u.extTest) > 0 {
			units = append(units, u)
		}
	}
	return units, nil
}

func importPath(modPath, rel string) string {
	if rel == "." || rel == "" {
		return modPath
	}
	return modPath + "/" + filepath.ToSlash(rel)
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Export     string
}

// exportData locates compiler export data for every dependency of the module
// (including test-only dependencies) by running the go tool once. The result
// maps import paths to export-data files in the build cache.
func exportData(root string) (map[string]string, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-test",
		"-json=ImportPath,Export", "./...")
	cmd.Dir = root
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list -export failed: %v\n%s", err, errb.String())
	}
	exports := make(map[string]string)
	dec := json.NewDecoder(&out)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

func lookupFunc(exports map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
}

// resolver implements types.Importer: module-internal packages come from the
// loader's own pass-1 results, everything else from compiler export data.
type resolver struct {
	modPath  string
	internal map[string]*types.Package
	override map[string]*types.Package
	gc       types.Importer
}

func (r *resolver) Import(path string) (*types.Package, error) {
	if p := r.override[path]; p != nil {
		return p, nil
	}
	if p := r.internal[path]; p != nil {
		return p, nil
	}
	if path == r.modPath || strings.HasPrefix(path, r.modPath+"/") {
		return nil, fmt.Errorf("lint: module package %q not loaded before its importer (cycle?)", path)
	}
	return r.gc.Import(path)
}

// check type-checks one file set as package path, collecting rather than
// aborting on errors.
func check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, []error) {
	var errs []error
	cfg := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, _ := cfg.Check(path, fset, files, info)
	return pkg, info, errs
}

// topoOrder sorts units so every module-internal import of a unit's pure
// files precedes it.
func topoOrder(units []*dirUnit, modPath string) ([]*dirUnit, error) {
	byPath := make(map[string]*dirUnit, len(units))
	for _, u := range units {
		byPath[u.path] = u
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make(map[string]int, len(units))
	var order []*dirUnit
	var visit func(u *dirUnit, chain []string) error
	visit = func(u *dirUnit, chain []string) error {
		switch state[u.path] {
		case gray:
			return fmt.Errorf("lint: import cycle: %s", strings.Join(append(chain, u.path), " -> "))
		case black:
			return nil
		}
		state[u.path] = gray
		for _, imp := range pureImports(u, modPath) {
			if dep := byPath[imp]; dep != nil {
				if err := visit(dep, append(chain, u.path)); err != nil {
					return err
				}
			}
		}
		state[u.path] = black
		order = append(order, u)
		return nil
	}
	for _, u := range units {
		if err := visit(u, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// pureImports lists the module-internal import paths of a unit's non-test
// files, sorted and deduplicated.
func pureImports(u *dirUnit, modPath string) []string {
	seen := make(map[string]bool)
	for _, f := range u.pure {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == modPath || strings.HasPrefix(path, modPath+"/") {
				seen[path] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
