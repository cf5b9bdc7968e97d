package experiments

import (
	"strings"
	"testing"
)

func TestRunFaultsSweep(t *testing.T) {
	cfg := Config{Scale: 32, S: 6, Tol: 1e-8}
	res, err := RunFaults(cfg, 20, []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Soft) != 5 {
		t.Fatalf("unexpected sweep shape: %d soft rows", len(res.Soft))
	}
	for _, row := range res.Soft {
		if row.Injected == 0 {
			t.Fatalf("%s: no corruptions injected at rate %g", row.Solver, row.Rate)
		}
		// The headline property: protection converges where the unprotected
		// run silently fails.
		if row.UnprotOK {
			t.Fatalf("%s: unprotected run reached true accuracy %.2e under corruption", row.Solver, row.UnprotRel)
		}
		if !row.ProtOK {
			t.Fatalf("%s: protected run failed (rel %.2e, detected %d, rollbacks %d)",
				row.Solver, row.ProtRel, row.Detected, row.Rollbacks)
		}
		if row.Detected == 0 || row.Rollbacks == 0 {
			t.Fatalf("%s: protection never fired", row.Solver)
		}
	}
	var sb strings.Builder
	RenderFaults(&sb, res)
	out := sb.String()
	for _, want := range []string{"Soft errors", "FAIL", "ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
