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

func TestTable2SubsetShape(t *testing.T) {
	cfg := testConfig()
	rows, err := RunTable2(cfg, subset("thermomech_TC", "Dubcova3", "G2_circuit"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if !r.PCGOk {
			t.Fatalf("%s: PCG did not converge", r.Name)
		}
		// Chebyshev basis must converge on these easy/medium instances.
		if !r.SPCGOk[1] || !r.CAPCGOk[1] {
			t.Fatalf("%s: Chebyshev-basis s-step solvers failed: %+v", r.Name, r)
		}
		// s-step iteration counts are multiples of s.
		if r.SPCG[1]%cfg.S != 0 {
			t.Fatalf("%s: sPCG iterations %d not a multiple of s=%d", r.Name, r.SPCG[1], cfg.S)
		}
	}
	var buf bytes.Buffer
	RenderTable2(&buf, rows, cfg.S)
	if !strings.Contains(buf.String(), "thermomech_TC") || !strings.Contains(buf.String(), "Converged (of 3)") {
		t.Fatalf("render output wrong:\n%s", buf.String())
	}
}

func TestTable2MonomialWorseThanChebyshev(t *testing.T) {
	// The paper's central claim: at s=10 the Chebyshev basis converges far
	// more often than the monomial basis.
	cfg := testConfig()
	rows, err := RunTable2(cfg, subset("cfd2", "shipsec1", "G2_circuit", "parabolic_fem"))
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(rows, cfg.S)
	chebTotal := sum.SPCGCheb + sum.CAPCGCheb + sum.CAPCG3Cheb
	monTotal := sum.SPCGMon + sum.CAPCGMon + sum.CAPCG3Mon
	if chebTotal <= monTotal {
		t.Fatalf("Chebyshev basis (%d convergences) not better than monomial (%d)", chebTotal, monTotal)
	}
}

func TestTable3Shape(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 256
	rows, err := RunTable3(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	spcgWins := 0
	for _, r := range rows {
		if r.JacPCGTime <= 0 && r.ChebPCGTime <= 0 {
			t.Fatalf("%s: PCG converged under neither preconditioner", r.Name)
		}
		if r.JacSPCG > 1 || r.ChebSPCG > 1 {
			spcgWins++
		}
	}
	if spcgWins < 4 {
		t.Fatalf("sPCG achieved speedup on only %d/7 matrices", spcgWins)
	}
	var buf bytes.Buffer
	RenderTable3(&buf, rows)
	if !strings.Contains(buf.String(), "G3_circuit") {
		t.Fatalf("render output wrong:\n%s", buf.String())
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

func TestAblationRuns(t *testing.T) {
	cfg := testConfig()
	res, err := RunAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Chebyshev basis must work at every s; monomial must fail (or degrade)
	// at large s.
	cheb := res.BasisSweep["chebyshev"]
	for i, it := range cheb {
		if it == 0 {
			t.Fatalf("Chebyshev basis failed at s=%d", res.BlockSizes[i])
		}
	}
	mon := res.BasisSweep["monomial"]
	lastMon := mon[len(mon)-1]
	lastCheb := cheb[len(cheb)-1]
	if lastMon != 0 && lastMon <= lastCheb {
		t.Fatalf("monomial basis at s=%d (%d iters) unexpectedly as good as Chebyshev (%d)", res.BlockSizes[len(mon)-1], lastMon, lastCheb)
	}
	var buf bytes.Buffer
	RenderAblation(&buf, res)
	if !strings.Contains(buf.String(), "Leja") {
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
