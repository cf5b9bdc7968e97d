package dist

import (
	"math"
	"strings"
	"testing"

	"spcg/internal/sparse"
)

func testMachine() Machine {
	m := DefaultMachine()
	m.RanksPerNode = 4 // keep virtual clusters small in tests
	return m
}

// chargeSequence charges a representative event mix.
func chargeSequence(tr *Tracker) {
	for i := 0; i < 40; i++ {
		tr.SpMV()
		tr.PrecApply(1000, 1)
		tr.VectorOp(2000, 24000)
		tr.ReduceLocal(1152, 9216)
		tr.Allreduce(3)
	}
}

func TestNewClusterPartition(t *testing.T) {
	a := sparse.Poisson2D(20, 20)
	c, err := NewCluster(testMachine(), 2, a)
	if err != nil {
		t.Fatal(err)
	}
	if c.P != 8 || c.Nodes != 2 {
		t.Fatalf("P=%d nodes=%d", c.P, c.Nodes)
	}
	if len(c.RowBounds) != 9 || c.RowBounds[0] != 0 || c.RowBounds[8] != a.Dim() {
		t.Fatalf("bounds = %v", c.RowBounds)
	}
	if c.MaxRows < a.Dim()/8 || c.MaxRows > a.Dim() {
		t.Fatalf("MaxRows = %d", c.MaxRows)
	}
	if c.MaxNNZ <= 0 || c.MaxNNZ > a.NNZ() {
		t.Fatalf("MaxNNZ = %d", c.MaxNNZ)
	}
}

func TestClusterValidation(t *testing.T) {
	a := sparse.Poisson1D(10)
	if _, err := NewCluster(testMachine(), 0, a); err == nil {
		t.Fatal("0 nodes accepted")
	}
	if _, err := NewCluster(testMachine(), 100, a); err == nil {
		t.Fatal("more ranks than rows accepted")
	}
	bad := testMachine()
	bad.FlopRate = 0
	if _, err := NewCluster(bad, 1, a); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

func TestHaloMeasurement1D(t *testing.T) {
	// Poisson1D with contiguous blocks: interior ranks have exactly 2 ghost
	// entries and 2 neighbours.
	a := sparse.Poisson1D(64)
	c, err := NewCluster(testMachine(), 2, a) // 8 ranks, 8 rows each
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxHaloRecv != 2 {
		t.Fatalf("MaxHaloRecv = %d, want 2", c.MaxHaloRecv)
	}
	if c.MaxNeighbors != 2 {
		t.Fatalf("MaxNeighbors = %d, want 2", c.MaxNeighbors)
	}
}

func TestHaloMeasurement2D(t *testing.T) {
	// 2D Poisson, block rows = strips of the grid: ghosts ≈ 2·nx.
	nx := 16
	a := sparse.Poisson2D(nx, 16)
	c, err := NewCluster(testMachine(), 1, a) // 4 ranks, 4 grid rows each
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxHaloRecv != 2*nx {
		t.Fatalf("MaxHaloRecv = %d, want %d", c.MaxHaloRecv, 2*nx)
	}
}

func TestOwnerOf(t *testing.T) {
	a := sparse.Poisson1D(40)
	c, err := NewCluster(testMachine(), 1, a)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < c.P; r++ {
		for j := c.RowBounds[r]; j < c.RowBounds[r+1]; j++ {
			if got := c.ownerOf(j); got != r {
				t.Fatalf("ownerOf(%d) = %d, want %d", j, got, r)
			}
		}
	}
}

func TestAllreduceScalesWithLogP(t *testing.T) {
	a := sparse.Poisson1D(1 << 12)
	m := testMachine()
	c1, _ := NewCluster(m, 1, a)   // 4 ranks
	c2, _ := NewCluster(m, 16, a)  // 64 ranks
	c3, _ := NewCluster(m, 256, a) // 1024 ranks
	t1, t2, t3 := c1.AllreduceTime(1), c2.AllreduceTime(1), c3.AllreduceTime(1)
	if !(t1 < t2 && t2 < t3) {
		t.Fatalf("allreduce times not increasing: %v %v %v", t1, t2, t3)
	}
	// log2 scaling: 1024 ranks = 10 steps vs 4 ranks = 2 steps.
	if math.Abs(t3/t1-5) > 0.01 {
		t.Fatalf("t3/t1 = %v, want 5 (log₂ scaling)", t3/t1)
	}
}

func TestRooflineRegimes(t *testing.T) {
	a := sparse.Poisson1D(100)
	c, _ := NewCluster(testMachine(), 1, a)
	// Pure compute: many flops, no bytes.
	if got := c.Roofline(2e9, 0); math.Abs(got-1/c.M.FlopRate*2e9) > 1e-12 {
		t.Fatalf("compute-bound roofline = %v", got)
	}
	// Pure streaming: time = bytes / per-rank bandwidth.
	want := 1e9 / c.M.RankMemBW()
	if got := c.Roofline(0, 1e9); math.Abs(got-want) > 1e-15 {
		t.Fatalf("memory-bound roofline = %v, want %v", got, want)
	}
}

func TestHaloTimeSingleRank(t *testing.T) {
	a := sparse.Poisson1D(10)
	m := testMachine()
	m.RanksPerNode = 1
	c, err := NewCluster(m, 1, a)
	if err != nil {
		t.Fatal(err)
	}
	if c.HaloTime() != 0 {
		t.Fatal("single rank should have no halo cost")
	}
}

func TestTrackerAccumulates(t *testing.T) {
	a := sparse.Poisson2D(16, 16)
	c, err := NewCluster(testMachine(), 1, a)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(c)
	tr.SpMV()
	tr.PrecApply(float64(a.Dim()), 0)
	tr.VectorOp(2*float64(a.Dim()), 24*float64(a.Dim()))
	tr.ReduceLocal(2*float64(a.Dim()), 16*float64(a.Dim()))
	tr.Allreduce(1)
	if tr.Time <= 0 {
		t.Fatal("no time accumulated")
	}
	cts := tr.Counts
	if cts.SpMVs != 1 || cts.PrecApplies != 1 || cts.Allreduces != 1 ||
		cts.AllreduceVals != 1 || cts.HaloExchanges != 1 {
		t.Fatalf("counts = %+v", cts)
	}
	if cts.LocalFlops <= 0 || cts.LocalReduceOps <= 0 {
		t.Fatalf("flops not counted: %+v", cts)
	}
	if tr.String() == "" {
		t.Fatal("empty String")
	}
}

func TestTrackerStringReportsAllCounts(t *testing.T) {
	a := sparse.Poisson2D(16, 16)
	c, _ := NewCluster(testMachine(), 1, a)
	tr := NewTracker(c)
	tr.SpMV()
	tr.ReduceLocal(100, 800)
	tr.Allreduce(1)
	s := tr.String()
	for _, want := range []string{"spmv=1", "prec=0", "allreduce=1(1 vals)", "halo=1", "flops=", "reduceflops=100"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String %q missing %q", s, want)
		}
	}
}

func TestNilTrackerIsNoop(t *testing.T) {
	var tr *Tracker
	tr.SpMV()
	tr.PrecApply(10, 1)
	tr.VectorOp(1, 1)
	tr.ReduceLocal(1, 1)
	tr.Allreduce(5)
	if tr.String() != "dist.Tracker(nil)" {
		t.Fatal("nil tracker String")
	}
}

func TestLatencyDominatesAtScale(t *testing.T) {
	// The core scalability fact the paper exploits: at high rank counts the
	// per-iteration allreduce cost exceeds the per-iteration local work, so
	// saving allreduces (s-step) wins. Verify the model reproduces the
	// crossover on a 3D Poisson problem.
	a := sparse.Poisson3D(64, 64, 64)
	m := DefaultMachine()
	mk := func(nodes int) (local, global float64) {
		c, err := NewCluster(m, nodes, a)
		if err != nil {
			t.Fatal(err)
		}
		// Local PCG iteration: SpMV + ~6n BLAS1 flops.
		local = c.Roofline(2*float64(c.MaxNNZ), 12*float64(c.MaxNNZ)+16*float64(c.MaxRows)) +
			c.Roofline(6*float64(c.MaxRows), 48*float64(c.MaxRows))
		global = 2 * c.AllreduceTime(1)
		return
	}
	l1, g1 := mk(1)
	if l1 < g1 {
		t.Fatalf("at 1 node local work %v should dominate allreduce %v", l1, g1)
	}
	l128, g128 := mk(128)
	if g128 < l128 {
		t.Fatalf("at 128 nodes allreduce %v should dominate local work %v", g128, l128)
	}
}

func TestReplayOnMatchesDirectCharge(t *testing.T) {
	a := sparse.Poisson2D(24, 24)
	m := testMachine()
	c1, _ := NewCluster(m, 1, a)
	c2, _ := NewCluster(m, 8, a)
	rec := NewRecordingTracker(c1)
	direct := NewTracker(c2)
	chargeSequence(rec)
	chargeSequence(direct)
	if got := rec.ReplayOn(c2); math.Abs(got-direct.Time) > 1e-15 {
		t.Fatalf("replay on c2 = %v, direct = %v", got, direct.Time)
	}
	if got := rec.ReplayOn(c1); math.Abs(got-rec.Time) > 1e-15 {
		t.Fatalf("replay on own cluster = %v, direct = %v", got, rec.Time)
	}
}

// TestReplayReproducesFaultChargesExactly: replaying a recording on the
// cluster that made it reproduces the charged time bit for bit. The machine
// model has no retry or straggler terms, so the charges of a solve that
// recovers from faults are ordinary events and reprice exactly; on another
// cluster the same events are repriced at that cluster's rates.
func TestReplayReproducesFaultChargesExactly(t *testing.T) {
	a := sparse.Poisson2D(24, 24)
	m := testMachine()
	c1, _ := NewCluster(m, 1, a)
	rec := NewRecordingTracker(c1)
	chargeSequence(rec)
	//spcglint:ignore floatcmp replay on the recording cluster is exact, bit for bit
	if got := rec.ReplayOn(c1); got != rec.Time {
		t.Fatalf("replay on own cluster = %v, direct = %v", got, rec.Time)
	}
	c8, err := NewCluster(m, 8, a)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.ReplayOn(c8); got <= 0 {
		t.Fatalf("replay on larger cluster = %v", got)
	}
}

func TestReplayRequiresRecording(t *testing.T) {
	a := sparse.Poisson1D(32)
	c, _ := NewCluster(testMachine(), 1, a)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTracker(c).ReplayOn(c)
}
