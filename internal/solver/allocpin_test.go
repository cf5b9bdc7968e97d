package solver

import (
	"testing"

	"spcg/internal/basis"
	"spcg/internal/mpk"
	"spcg/internal/pool"
	"spcg/internal/precond"
	"spcg/internal/vec"
)

// powersAllocPins are the allocations of one warm ctx.powers call on the
// local backend at one pool worker, recorded at 5082abc (before the matrix
// powers step took one column form at every layer) by running exactly
// TestMatrixPowersAllocationsPinned's measurement there. The fused steps
// allocated one closure per column step (s = 5 of them on one chain; 4 paired
// and 1 single on two); IC(0) runs unfused and allocated nothing.
var powersAllocPins = []struct {
	prec   string
	chains int
	allocs float64
}{
	{"jacobi", 1, 5},
	{"jacobi", 2, 5},
	{"ic0", 1, 0},
	{"ic0", 2, 0},
}

// TestMatrixPowersAllocationsPinned: handing a step's columns down through
// the matrix powers kernel, the context and the backend allocates no more
// than the parent did, with the fused step (Jacobi) and without it (IC(0)),
// on one chain and on CA-PCG's two.
func TestMatrixPowersAllocationsPinned(t *testing.T) {
	defer pool.SetDefaultWorkers(pool.SetDefaultWorkers(1))
	const s = 5
	f := newPassFixture(t)
	ic0, err := precond.NewIC0(f.a)
	if err != nil {
		t.Fatal(err)
	}
	precs := map[string]precond.Interface{"jacobi": f.m, "ic0": ic0}
	params := basis.ChebyshevParams(s, 0.05, 8)
	n := f.a.Dim()
	for _, pin := range powersAllocPins {
		if raceEnabled && pin.prec == "ic0" {
			continue // IC(0) takes its forward-solve vector from a sync.Pool
		}
		m := precs[pin.prec]
		lb, err := newLocal(f.a, m)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newCtx(lb, f.b, Options{S: s}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		c.attachLocal(lb)
		q, r := f.b, append([]float64(nil), f.b...)
		p, u := make([]float64, n), make([]float64, n)
		m.Apply(p, q)
		m.Apply(u, r)
		chains := []mpk.Chain{
			{W: q, U0: p, S: vec.NewBlock(n, s+1), U: vec.NewBlock(n, s+1)},
			{W: r, U0: u, S: vec.NewBlock(n, s), U: vec.NewBlock(n, s)},
		}[:pin.chains]
		got := testing.AllocsPerRun(20, func() {
			if err := c.powers(params, chains...); err != nil {
				t.Fatal(err)
			}
		})
		if got > pin.allocs {
			t.Errorf("%s, %d chains: %v allocations per call, parent %v", pin.prec, pin.chains, got, pin.allocs)
		}
	}
}
