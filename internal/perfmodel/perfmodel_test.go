package perfmodel

import (
	"math"
	"testing"

	"spcg/internal/dist"
	"spcg/internal/sparse"
)

// TestTable1MatchesPaper pins every cell of the paper's Table 1 at s = 10.
func TestTable1MatchesPaper(t *testing.T) {
	want := map[Algorithm]Cost{
		PCG:     {MVAndPrec: 10, LocalReductions: 20, VectorOpsMonomial: 60, VectorOpsArbitraryExtra: -1, TotalMonomial: 80, TotalArbitrary: -1},
		SPCGMon: {MVAndPrec: 10, LocalReductions: 20, VectorOpsMonomial: 440, VectorOpsArbitraryExtra: -1, TotalMonomial: 460, TotalArbitrary: -1},
		SPCG:    {MVAndPrec: 10, LocalReductions: 220, VectorOpsMonomial: 440, VectorOpsArbitraryExtra: 96, TotalMonomial: 660, TotalArbitrary: 756},
		CAPCG:   {MVAndPrec: 19, LocalReductions: 441, VectorOpsMonomial: 206, VectorOpsArbitraryExtra: 91, TotalMonomial: 647, TotalArbitrary: 738},
		CAPCG3:  {MVAndPrec: 10, LocalReductions: 441, VectorOpsMonomial: 970, VectorOpsArbitraryExtra: 48, TotalMonomial: 1411, TotalArbitrary: 1459},
	}
	for alg, w := range want {
		got, err := Table1(alg, 10)
		if err != nil {
			t.Fatal(err)
		}
		if got.MVAndPrec != w.MVAndPrec {
			t.Errorf("%s MV: %d, want %d", alg, got.MVAndPrec, w.MVAndPrec)
		}
		if got.LocalReductions != w.LocalReductions {
			t.Errorf("%s reductions: %v, want %v", alg, got.LocalReductions, w.LocalReductions)
		}
		if got.VectorOpsMonomial != w.VectorOpsMonomial {
			t.Errorf("%s vec mon: %v, want %v", alg, got.VectorOpsMonomial, w.VectorOpsMonomial)
		}
		if got.VectorOpsArbitraryExtra != w.VectorOpsArbitraryExtra {
			t.Errorf("%s vec arb extra: %v, want %v", alg, got.VectorOpsArbitraryExtra, w.VectorOpsArbitraryExtra)
		}
		if got.TotalMonomial != w.TotalMonomial {
			t.Errorf("%s total mon: %v, want %v", alg, got.TotalMonomial, w.TotalMonomial)
		}
		if got.TotalArbitrary != w.TotalArbitrary {
			t.Errorf("%s total arb: %v, want %v", alg, got.TotalArbitrary, w.TotalArbitrary)
		}
	}
}

// TestTable1InternallyConsistent: the Total columns must equal
// reductions + vector ops for every algorithm and many s — the identity the
// paper's table rests on.
func TestTable1InternallyConsistent(t *testing.T) {
	for _, alg := range Algorithms() {
		for s := 1; s <= 32; s++ {
			c, err := Table1(alg, s)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.LocalReductions + c.VectorOpsMonomial; got != c.TotalMonomial {
				t.Errorf("%s s=%d: reductions+vec = %v, total mon = %v", alg, s, got, c.TotalMonomial)
			}
			if c.TotalArbitrary >= 0 {
				if got := c.TotalMonomial + c.VectorOpsArbitraryExtra; got != c.TotalArbitrary {
					t.Errorf("%s s=%d: mon+extra = %v, total arb = %v", alg, s, got, c.TotalArbitrary)
				}
			}
		}
	}
}

// TestSPCGCheapestSStep verifies the paper's §4.3 claims: sPCG beats
// CA-PCG3 in local vector ops for all s, and CA-PCG has the fewest local
// vector ops for s ≥ 10 but the most MV products.
func TestSPCGCheapestSStep(t *testing.T) {
	for s := 2; s <= 32; s++ {
		spcg, _ := Table1(SPCG, s)
		ca3, _ := Table1(CAPCG3, s)
		ca, _ := Table1(CAPCG, s)
		if spcg.VectorOpsMonomial+spcg.VectorOpsArbitraryExtra >= ca3.VectorOpsMonomial+ca3.VectorOpsArbitraryExtra {
			t.Errorf("s=%d: sPCG vector ops not below CA-PCG3", s)
		}
		if ca.MVAndPrec <= spcg.MVAndPrec && s >= 2 {
			t.Errorf("s=%d: CA-PCG should need more MVs", s)
		}
		if s >= 10 {
			if ca.VectorOpsMonomial+ca.VectorOpsArbitraryExtra >= spcg.VectorOpsMonomial+spcg.VectorOpsArbitraryExtra {
				t.Errorf("s=%d: CA-PCG local vector ops should be cheapest for s ≥ 10", s)
			}
		}
	}
}

func TestGlobalReductions(t *testing.T) {
	if GlobalReductionsPerSSteps(PCG, 10) != 20 {
		t.Error("PCG should have 2s reductions")
	}
	for _, alg := range []Algorithm{SPCGMon, SPCG, CAPCG, CAPCG3} {
		if GlobalReductionsPerSSteps(alg, 10) != 1 {
			t.Errorf("%s should have 1 reduction per s steps", alg)
		}
	}
	if ReductionPayload(SPCG, 10) != 220 || ReductionPayload(CAPCG, 10) != 441 {
		t.Error("payload sizes wrong")
	}
	if ReductionPayload(Algorithm("x"), 10) != 0 {
		t.Error("unknown algorithm payload should be 0")
	}
}

func TestTable1Errors(t *testing.T) {
	if _, err := Table1(PCG, 0); err == nil {
		t.Error("s=0 accepted")
	}
	if _, err := Table1(Algorithm("nope"), 5); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestPredictShapes(t *testing.T) {
	a := sparse.Poisson3D(24, 24, 24)
	m := dist.DefaultMachine()
	m.RanksPerNode = 16

	// At high node counts, PCG's reduce time share must exceed its share at
	// low node counts — the scaling knee.
	cl1, err := dist.NewCluster(m, 1, a)
	if err != nil {
		t.Fatal(err)
	}
	cl64, err := dist.NewCluster(m, 64, a)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := Predict(PCG, 10, cl1, float64(a.Dim()), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	p64, err := Predict(PCG, 10, cl64, float64(a.Dim()), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if p1.ReduceTime/p1.Total >= p64.ReduceTime/p64.Total {
		t.Fatalf("PCG reduce share did not grow with scale: %v vs %v", p1.ReduceTime/p1.Total, p64.ReduceTime/p64.Total)
	}
	// At scale, sPCG must beat PCG; CA-PCG must pay for its extra MVs.
	sp, err := Predict(SPCG, 10, cl64, float64(a.Dim()), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := Predict(CAPCG, 10, cl64, float64(a.Dim()), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Total >= p64.Total {
		t.Fatalf("modeled sPCG (%v) not faster than PCG (%v) at 64 nodes", sp.Total, p64.Total)
	}
	if ca.MVTime <= sp.MVTime {
		t.Fatalf("CA-PCG MV time (%v) should exceed sPCG's (%v)", ca.MVTime, sp.MVTime)
	}
	if _, err := Predict(Algorithm("bad"), 10, cl1, 0, 0, false); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestPredictPricesEventsLikeTheTracker is the one-price-list property: a
// tracker charged with exactly Table 1's PCG event counts for s steps (s
// SpMVs, s preconditioner applications) accumulates, per event, the same
// price Predict multiplies by those counts. Repeated addition and one
// multiplication round differently, so the bit-for-bit statement is on the
// unit price times the charged count; the accumulated clock agrees to
// rounding.
func TestPredictPricesEventsLikeTheTracker(t *testing.T) {
	a := sparse.Poisson3D(12, 12, 12)
	m := dist.DefaultMachine()
	m.RanksPerNode = 16
	cl, err := dist.NewCluster(m, 4, a)
	if err != nil {
		t.Fatal(err)
	}
	precFlops, precHalos := 7*float64(a.NNZ()), 2 // a degree-3 polynomial preconditioner's shape
	unitMV, unitPrec := dist.NewTracker(cl), dist.NewTracker(cl)
	unitMV.SpMV()
	unitPrec.PrecApply(precFlops, precHalos)
	for _, s := range []int{1, 2, 5, 10} {
		c, err := Table1(PCG, s)
		if err != nil {
			t.Fatal(err)
		}
		mv, prec := dist.NewTracker(cl), dist.NewTracker(cl)
		for i := 0; i < c.MVAndPrec; i++ {
			mv.SpMV()
			prec.PrecApply(precFlops, precHalos)
		}
		p, err := Predict(PCG, s, cl, precFlops, precHalos, false)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(mv.Counts.SpMVs) * unitMV.Time; p.MVTime != want {
			t.Errorf("s=%d: MVTime %v, tracker prices %d SpMVs at %v", s, p.MVTime, mv.Counts.SpMVs, want)
		}
		if want := float64(prec.Counts.PrecApplies) * unitPrec.Time; p.PrecTime != want {
			t.Errorf("s=%d: PrecTime %v, tracker prices %d applications at %v", s, p.PrecTime, prec.Counts.PrecApplies, want)
		}
		if d := math.Abs(mv.Time-p.MVTime) / p.MVTime; d > 1e-14 {
			t.Errorf("s=%d: accumulated SpMV time %v vs MVTime %v", s, mv.Time, p.MVTime)
		}
		if d := math.Abs(prec.Time-p.PrecTime) / p.PrecTime; d > 1e-14 {
			t.Errorf("s=%d: accumulated preconditioner time %v vs PrecTime %v", s, prec.Time, p.PrecTime)
		}
	}
}
