package lint

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The fixture module under testdata/src/fixmod holds one positive package
// (the analyzer must fire) and one negative package (it must stay silent)
// per analyzer, plus stub resilience/obs packages and fixture docs. Loading
// it exercises the full loader — parsing, topo order, stdlib export data —
// against a module other than the repo itself.
var fixtureOnce struct {
	sync.Once
	m   *Module
	err error
}

func fixtureModule(t *testing.T) *Module {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureOnce.m, fixtureOnce.err = LoadModule(filepath.Join("testdata", "src", "fixmod"))
	})
	if fixtureOnce.err != nil {
		t.Fatalf("LoadModule(fixmod): %v", fixtureOnce.err)
	}
	for _, pkg := range fixtureOnce.m.Packages {
		for _, e := range pkg.TypeErrors {
			t.Fatalf("fixture type error in %s: %v", pkg.Path, e)
		}
	}
	return fixtureOnce.m
}

// diagsByFile runs the analyzers (through Run, so directives apply) and
// groups the diagnostics by base filename.
func diagsByFile(m *Module, analyzers ...*Analyzer) map[string][]Diagnostic {
	byFile := make(map[string][]Diagnostic)
	for _, d := range Run(m, analyzers) {
		base := filepath.Base(d.Pos.Filename)
		byFile[base] = append(byFile[base], d)
	}
	return byFile
}

// wantCount asserts the number of diagnostics attributed to one file; on
// mismatch it lists what was reported.
func wantCount(t *testing.T, byFile map[string][]Diagnostic, file string, want int) []Diagnostic {
	t.Helper()
	got := byFile[file]
	if len(got) != want {
		t.Errorf("%s: got %d diagnostic(s), want %d:", file, len(got), want)
		for _, d := range got {
			t.Logf("  %v", d)
		}
	}
	return got
}

// wantMessage asserts some diagnostic in the list carries the substring.
func wantMessage(t *testing.T, diags []Diagnostic, sub string) {
	t.Helper()
	for _, d := range diags {
		if strings.Contains(d.Message, sub) {
			return
		}
	}
	t.Errorf("no diagnostic mentions %q in %v", sub, diags)
}

func TestDeterminismFixture(t *testing.T) {
	m := fixtureModule(t)
	byFile := diagsByFile(m, Determinism(DeterminismConfig{
		Packages:     []string{"fixmod/detbad", "fixmod/detgood"},
		LoopPackages: []string{"fixmod/detloop"},
	}))
	bad := wantCount(t, byFile, "detbad.go", 4)
	wantMessage(t, bad, "range over map")
	wantMessage(t, bad, "time.Now")
	wantMessage(t, bad, "rand.Float64")
	wantMessage(t, bad, "goroutine spawn")
	wantCount(t, byFile, "detgood.go", 0)
	loop := wantCount(t, byFile, "detloop.go", 2)
	wantMessage(t, loop, "time.Now")
	wantMessage(t, loop, "range over map")
}

func TestSafegoFixture(t *testing.T) {
	m := fixtureModule(t)
	byFile := diagsByFile(m, Safego(SafegoConfig{
		Packages: []string{"fixmod/sgbad", "fixmod/sggood"},
		SafePath: "fixmod/resilience",
		SafeFunc: "Safe",
	}))
	bad := wantCount(t, byFile, "sgbad.go", 3)
	wantMessage(t, bad, "direct call")
	wantMessage(t, bad, "first statement must call resilience.Safe")
	wantCount(t, byFile, "sggood.go", 0)
}

func TestCancelpollFixture(t *testing.T) {
	m := fixtureModule(t)
	cfg := func(pkg string) *Analyzer {
		return Cancelpoll(CancelpollConfig{
			Package:     pkg,
			RegistryVar: "methods",
			CheckCall:   "done",
			PollCalls:   []string{"cancelled"},
		})
	}
	byFile := diagsByFile(m, cfg("fixmod/cpbad"))
	bad := wantCount(t, byFile, "cpbad.go", 1)
	wantMessage(t, bad, "never polls cancelled()")

	byFile = diagsByFile(m, cfg("fixmod/cpgood"))
	wantCount(t, byFile, "cpgood.go", 0)
}

func TestFloatcmpFixture(t *testing.T) {
	m := fixtureModule(t)
	byFile := diagsByFile(m, Floatcmp(FloatcmpConfig{
		AllowFiles: []string{"fc/allowed.go"},
	}))
	bad := wantCount(t, byFile, "fc.go", 1)
	wantMessage(t, bad, "floating-point == comparison")
	wantCount(t, byFile, "allowed.go", 0)
}

func TestAllocfreeFixture(t *testing.T) {
	m := fixtureModule(t)
	byFile := diagsByFile(m, Allocfree(AllocfreeConfig{
		Packages:    []string{"fixmod/af"},
		FuncPattern: "Fused",
	}))
	bad := wantCount(t, byFile, "af.go", 2)
	wantMessage(t, bad, "make inside a loop of fused kernel AxpyFused")
	wantMessage(t, bad, "append inside a loop of fused kernel AxpyFused")
}

func TestMetricdocFixture(t *testing.T) {
	m := fixtureModule(t)
	byFile := diagsByFile(m, Metricdoc(MetricdocConfig{
		ObsPath:      "fixmod/obs",
		Constructors: []string{"Counter", "Gauge", "GaugeFunc"},
		MetricsDoc:   "docs/OBSERVABILITY.md",
		RoutesDoc:    "docs/API.md",
		RoutesVar:    "routes",
	}))
	bad := wantCount(t, byFile, "md.go", 3)
	wantMessage(t, bad, `"fix_missing_total" is not documented`)
	wantMessage(t, bad, "must be a string literal")
	wantMessage(t, bad, `route "GET /ghost" is not documented`)
	for _, d := range bad {
		if strings.Contains(d.Message, "fix_documented_total") || strings.Contains(d.Message, "POST /solve") {
			t.Errorf("documented name flagged: %v", d)
		}
	}
}

func TestDirectivesFixture(t *testing.T) {
	m := fixtureModule(t)
	byFile := diagsByFile(m, Floatcmp(FloatcmpConfig{}))
	// Suppressed() is covered by its directive; the two malformed directives
	// are reported under "spcglint" and do NOT suppress their comparisons.
	diags := wantCount(t, byFile, "dir.go", 4)
	var floatcmp, malformed int
	for _, d := range diags {
		switch d.Analyzer {
		case "floatcmp":
			floatcmp++
		case "spcglint":
			malformed++
		}
	}
	if floatcmp != 2 || malformed != 2 {
		t.Errorf("dir.go: got %d floatcmp + %d spcglint diagnostics, want 2 + 2", floatcmp, malformed)
	}
	wantMessage(t, diags, "gives no reason")
	wantMessage(t, diags, `unknown analyzer "nosuch"`)
}

func TestDeadsurfaceFixture(t *testing.T) {
	m := fixtureModule(t)
	byFile := diagsByFile(m, Deadsurface(DeadsurfaceConfig{
		Dirs:    []string{"ds"},
		Deleted: "# fixture deny list\nzombie  [fixture] a name that must not come back\n",
	}))
	// Exactly these four: SharedFixture (another package's test), Total,
	// Square and Side (package dsuser), Area (through Shape) and Kept (the
	// directive) stay silent.
	decls := wantCount(t, byFile, "ds.go", 4)
	wantMessage(t, decls, "exported func Unused has no user")
	wantMessage(t, decls, "exported func OwnTestOnly has no user")
	wantMessage(t, decls, "exported field Square.Dead has no user")
	wantMessage(t, decls, "func unusedHelper is never referenced")
	deny := wantCount(t, byFile, "deny.go", 3)
	for _, hit := range []string{`"Zombie"`, `"ZOMBIE"`, `"zombie"`} {
		wantMessage(t, deny, "deleted name "+hit+" is back")
	}
	wantCount(t, byFile, "dsuser.go", 0)
}
