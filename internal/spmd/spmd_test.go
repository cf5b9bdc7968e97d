package spmd

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"spcg/internal/basis"
	"spcg/internal/sparse"
)

// mustRun runs fn on every rank of w and fails the test on a rank failure.
func mustRun(t *testing.T, w *World, fn func(r *Rank)) {
	t.Helper()
	if err := w.RunE(fn); err != nil {
		t.Fatal(err)
	}
}

func TestWorldBarrierAndAllreduce(t *testing.T) {
	w := NewWorld(5)
	var counter int64
	mustRun(t, w, func(r *Rank) {
		atomic.AddInt64(&counter, 1)
		r.Barrier()
		// After the barrier every rank must observe all increments.
		if atomic.LoadInt64(&counter) != 5 {
			t.Errorf("rank %d saw counter %d before allreduce", r.ID, counter)
		}
		sum := r.Allreduce([]float64{float64(r.ID + 1), 1})
		if sum[0] != 15 || sum[1] != 5 {
			t.Errorf("rank %d allreduce = %v", r.ID, sum)
		}
		// The result is rank-private: scribbling on it must not show up on
		// any other rank (under -race a shared slice is reported here).
		sum[0] = float64(r.ID)
		r.Barrier()
		if sum[0] != float64(r.ID) {
			t.Errorf("rank %d: allreduce result shared with another rank", r.ID)
		}
		// Repeated reductions must not interfere.
		sum2 := r.Allreduce([]float64{2})
		if sum2[0] != 10 {
			t.Errorf("rank %d second allreduce = %v", r.ID, sum2)
		}
	})
}

func TestWorldSendRecv(t *testing.T) {
	w := NewWorld(4)
	mustRun(t, w, func(r *Rank) {
		next := (r.ID + 1) % 4
		prev := (r.ID + 3) % 4
		r.Send(next, []float64{float64(r.ID)})
		got := r.Recv(prev)
		if got[0] != float64(prev) {
			t.Errorf("rank %d got %v from %d", r.ID, got, prev)
		}
	})
}

func TestDistributeRoundTripSpMV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
		p    int
	}{
		{"poisson1d p=3", sparse.Poisson1D(50), 3},
		{"poisson2d p=4", sparse.Poisson2D(13, 11), 4},
		{"poisson3d p=7", sparse.Poisson3D(6, 5, 4), 7},
		{"varcoeff p=5", sparse.VarCoeff2D(12, 12, 2, 3), 5},
		{"p=1", sparse.Poisson2D(8, 8), 1},
	} {
		a, p := tc.a, tc.p
		x := make([]float64, a.Dim())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, a.Dim())
		a.MulVec(want, x)

		locals, err := Distribute(a, p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := make([]float64, a.Dim())
		w := NewWorld(p)
		mustRun(t, w, func(rk *Rank) {
			lm := locals[rk.ID]
			dst := make([]float64, lm.NLocal())
			lm.SpMV(rk, dst, x[lm.Lo:lm.Hi])
			copy(got[lm.Lo:lm.Hi], dst)
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: distributed SpMV differs at row %d: %v vs %v", tc.name, i, got[i], want[i])
			}
		}
	}
}

func TestDistributeRepeatedExchanges(t *testing.T) {
	// Multiple rounds through the same protocol (as in a solver loop) must
	// stay consistent — this exercises mailbox reuse and the round barrier.
	a := sparse.Poisson2D(10, 10)
	p := 4
	locals, err := Distribute(a, p)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Dim())
	for i := range x {
		x[i] = float64(i)
	}
	// want = A³·x computed sequentially.
	want := append([]float64(nil), x...)
	tmp := make([]float64, a.Dim())
	for k := 0; k < 3; k++ {
		a.MulVec(tmp, want)
		want, tmp = tmp, want
	}
	got := make([]float64, a.Dim())
	w := NewWorld(p)
	mustRun(t, w, func(rk *Rank) {
		lm := locals[rk.ID]
		cur := append([]float64(nil), x[lm.Lo:lm.Hi]...)
		dst := make([]float64, lm.NLocal())
		for k := 0; k < 3; k++ {
			lm.SpMV(rk, dst, cur)
			copy(cur, dst)
		}
		copy(got[lm.Lo:lm.Hi], cur)
	})
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("A³x differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestDistributeValidation(t *testing.T) {
	a := sparse.Poisson1D(5)
	if _, err := Distribute(a, 0); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := Distribute(a, 10); err == nil {
		t.Fatal("p > rows accepted")
	}
}

func TestPCGJacobiDeterministicAcrossRuns(t *testing.T) {
	// Rank-ordered reduction makes the parallel solve bitwise reproducible.
	a := sparse.VarCoeff2D(14, 14, 2, 9)
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	r1, err := PCGJacobi(a, b, 6, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := PCGJacobi(a, b, 6, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Iterations != r2.Iterations {
		t.Fatal("iteration counts differ across runs")
	}
	for i := range r1.X {
		if r1.X[i] != r2.X[i] {
			t.Fatalf("solutions differ bitwise at %d", i)
		}
	}
}

func TestPCGJacobiValidation(t *testing.T) {
	a := sparse.Poisson1D(10)
	if _, err := PCGJacobi(a, make([]float64, 3), 2, 1e-9, 0); err == nil {
		t.Fatal("bad rhs accepted")
	}
	coo := sparse.NewCOO(4)
	for i := 0; i < 4; i++ {
		coo.Add(i, i, -1)
		if i > 0 {
			coo.AddSym(i, i-1, 0.1)
		}
	}
	if _, err := PCGJacobi(coo.ToCSR(), make([]float64, 4), 2, 1e-9, 0); err == nil {
		t.Fatal("negative diagonal accepted")
	}
}

func TestSPCGJacobiValidation(t *testing.T) {
	a := sparse.Poisson1D(20)
	params := basis.MonomialParams(3)
	if _, err := SPCGJacobi(a, make([]float64, 5), 2, 3, params, 1e-9, 0); err == nil {
		t.Fatal("bad rhs accepted")
	}
	if _, err := SPCGJacobi(a, make([]float64, 20), 2, 0, params, 1e-9, 0); err == nil {
		t.Fatal("s=0 accepted")
	}
	if _, err := SPCGJacobi(a, make([]float64, 20), 2, 5, params, 1e-9, 0); err == nil {
		t.Fatal("degree < s accepted")
	}
	if _, err := SPCGJacobi(a, make([]float64, 20), 2, 3, nil, 1e-9, 0); err == nil {
		t.Fatal("nil params accepted")
	}
}

func TestCAPCGJacobiValidation(t *testing.T) {
	a := sparse.Poisson1D(20)
	params := basis.MonomialParams(3)
	if _, err := CAPCGJacobi(a, make([]float64, 5), 2, 3, params, 1e-9, 0); err == nil {
		t.Fatal("bad rhs accepted")
	}
	if _, err := CAPCGJacobi(a, make([]float64, 20), 2, 5, params, 1e-9, 0); err == nil {
		t.Fatal("degree < s accepted")
	}
}
