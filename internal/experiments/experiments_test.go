package experiments

import (
	"bytes"
	"strings"
	"testing"

	"spcg/internal/dist"
	"spcg/internal/suite"
)

// testConfig keeps experiment tests fast: tiny scale, small virtual nodes.
func testConfig() Config {
	m := dist.DefaultMachine()
	m.RanksPerNode = 8
	return Config{Scale: 256, S: 10, Tol: 1e-9, MaxIterations: 12000, Machine: m, PrecondDegree: 3}
}

func subset(names ...string) []suite.Problem {
	var out []suite.Problem
	for _, n := range names {
		p, ok := suite.ByName(n)
		if !ok {
			panic("unknown problem " + n)
		}
		out = append(out, p)
	}
	return out
}

func TestTable1RunAndValidate(t *testing.T) {
	cfg := testConfig()
	rows, err := RunTable1(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	if err := ValidateTable1(rows, cfg.S); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows, cfg.S)
	out := buf.String()
	for _, want := range []string{"PCG", "sPCG", "CA-PCG", "CA-PCG3", "#MV+#prec"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig1ScalingShape(t *testing.T) {
	cfg := testConfig()
	res, err := RunFig1(cfg, 24, 32, []int{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.PCG1Node <= 0 {
		t.Fatal("no reference time")
	}
	if len(res.Series) != 1+2*3 {
		t.Fatalf("got %d series", len(res.Series))
	}
	// PCG is the first series; at the largest node count some s-step method
	// must beat PCG (the paper's headline claim).
	last := len(res.NodeCounts) - 1
	pcg := res.Series[0].Speedup[last]
	bestSStep := 0.0
	for _, s := range res.Series[1:] {
		if s.Speedup != nil && s.Speedup[last] > bestSStep {
			bestSStep = s.Speedup[last]
		}
	}
	if bestSStep <= pcg {
		t.Fatalf("no s-step method beats PCG at %d nodes: best %.2f vs PCG %.2f",
			res.NodeCounts[last], bestSStep, pcg)
	}
	var buf bytes.Buffer
	RenderFig1(&buf, res)
	if !strings.Contains(buf.String(), "Strong scaling") {
		t.Fatal("render output wrong")
	}
}

func TestPredictAgreement(t *testing.T) {
	cfg := testConfig()
	rows, err := RunPredict(cfg, 20, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Measured == 0 {
			t.Fatalf("%s nodes=%d: no measurement", r.Alg, r.Nodes)
		}
		// The closed forms ignore setup and fuse payload details; agreement
		// within a factor of 3 validates both views share one machine model.
		if r.Ratio < 1.0/3 || r.Ratio > 3 {
			t.Fatalf("%s nodes=%d: simulated/predicted ratio %.2f out of range", r.Alg, r.Nodes, r.Ratio)
		}
	}
	var buf bytes.Buffer
	RenderPredict(&buf, rows, cfg.S)
	if !strings.Contains(buf.String(), "sim/pred") {
		t.Fatal("render output wrong")
	}
}
