package vec

import (
	"math"
	"math/rand"
	"spcg/internal/pool"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func almostEq(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestDotBasic(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, -5, 6}
	if got := Dot(a, b); got != 12 {
		t.Fatalf("Dot = %v, want 12", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); !almostEq(got, 5, eps) {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v, want 0", got)
	}
	// Scaling must avoid overflow.
	big := 1e300
	if got := Norm2([]float64{big, big}); math.IsInf(got, 1) {
		t.Fatal("Norm2 overflowed where scaled computation should not")
	} else if !almostEq(got, big*math.Sqrt2, 1e-12) {
		t.Fatalf("Norm2 big = %v", got)
	}
	// And underflow.
	tiny := 1e-300
	if got := Norm2([]float64{tiny, tiny}); got == 0 {
		t.Fatal("Norm2 underflowed")
	}
}

func TestNormInf(t *testing.T) {
	if got := NormInf([]float64{-7, 2, 6.5}); got != 7 {
		t.Fatalf("NormInf = %v, want 7", got)
	}
}

func TestAxpyAxpby(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	Axpby(1, []float64{1, 1, 1}, -1, y)
	want = []float64{-2, -4, -6}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpby[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestXpayInto(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{10, 20}
	dst := make([]float64, 2)
	XpayInto(dst, x, 0.5, y)
	if dst[0] != 6 || dst[1] != 12 {
		t.Fatalf("XpayInto = %v", dst)
	}
	// Aliasing dst = x.
	XpayInto(x, x, 1, y)
	if x[0] != 11 || x[1] != 22 {
		t.Fatalf("aliased XpayInto = %v", x)
	}
}

func TestScaleSubAddHadamardFill(t *testing.T) {
	x := []float64{2, 4}
	Scale(0.5, x)
	if x[0] != 1 || x[1] != 2 {
		t.Fatalf("Scale = %v", x)
	}
	dst := make([]float64, 2)
	ScaleInto(dst, 3, x)
	if dst[0] != 3 || dst[1] != 6 {
		t.Fatalf("ScaleInto = %v", dst)
	}
	Sub(dst, []float64{5, 5}, []float64{1, 2})
	if dst[0] != 4 || dst[1] != 3 {
		t.Fatalf("Sub = %v", dst)
	}
	Add(dst, []float64{5, 5}, []float64{1, 2})
	if dst[0] != 6 || dst[1] != 7 {
		t.Fatalf("Add = %v", dst)
	}
	HadamardInto(dst, []float64{2, 3}, []float64{4, 5})
	if dst[0] != 8 || dst[1] != 15 {
		t.Fatalf("Hadamard = %v", dst)
	}
	Fill(dst, 9)
	if dst[0] != 9 || dst[1] != 9 {
		t.Fatalf("Fill = %v", dst)
	}
	Zero(dst)
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatalf("Zero = %v", dst)
	}
}

func TestCopyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Copy(make([]float64, 2), make([]float64, 3))
}

func TestDotMany(t *testing.T) {
	x := []float64{1, 2}
	got := DotMany(x, []float64{1, 0}, []float64{0, 1}, []float64{1, 1})
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("DotMany = %v", got)
	}
}

func TestThreeterm(t *testing.T) {
	z := []float64{10, 20}
	y := []float64{1, 2}
	w := []float64{100, 200}
	dst := make([]float64, 2)
	Threeterm(dst, z, 2, y, 0.01, w, 2)
	// (10 - 2*1 - 0.01*100)/2 = 3.5 ; (20 - 4 - 2)/2 = 7
	if !almostEq(dst[0], 3.5, eps) || !almostEq(dst[1], 7, eps) {
		t.Fatalf("Threeterm = %v", dst)
	}
	Threeterm(dst, z, 2, y, 0, nil, 4)
	if !almostEq(dst[0], 2, eps) || !almostEq(dst[1], 4, eps) {
		t.Fatalf("Threeterm nil-w = %v", dst)
	}
}

func TestThreetermZeroGammaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Threeterm(make([]float64, 1), []float64{1}, 0, []float64{1}, 0, nil, 0)
}

// Property: Dot is symmetric and bilinear.
func TestDotPropertiesQuick(t *testing.T) {
	f := func(raw []float64, alpha float64) bool {
		if len(raw) < 2 {
			return true
		}
		if math.Abs(alpha) > 1e6 {
			alpha = math.Mod(alpha, 1e6)
		}
		n := len(raw) / 2
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e8 {
				return true
			}
		}
		a, b := raw[:n], raw[n:2*n]
		if !almostEq(Dot(a, b), Dot(b, a), 1e-9) {
			return false
		}
		ac := make([]float64, n)
		ScaleInto(ac, alpha, a)
		return almostEq(Dot(ac, b), alpha*Dot(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Norm2(x)² == Dot(x,x) within tolerance.
func TestNorm2MatchesDotQuick(t *testing.T) {
	f := func(raw []float64) bool {
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		n2 := Norm2(raw)
		return almostEq(n2*n2, Dot(raw, raw), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParDotMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 100, parallelThreshold - 1, parallelThreshold, parallelThreshold*3 + 17} {
		a, b := randVec(rng, n), randVec(rng, n)
		if got, want := ParDot(a, b), Dot(a, b); !almostEq(got, want, 1e-9) {
			t.Fatalf("n=%d ParDot = %v, Dot = %v", n, got, want)
		}
	}
}

func TestParDotSingleWorker(t *testing.T) {
	prev := pool.SetDefaultWorkers(1)
	defer pool.SetDefaultWorkers(prev)
	a := randVec(rand.New(rand.NewSource(3)), parallelThreshold*2)
	if got, want := ParDot(a, a), Dot(a, a); !almostEq(got, want, 1e-9) {
		t.Fatalf("single-worker ParDot = %v, want %v", got, want)
	}
	if back := pool.SetDefaultWorkers(0); back != 1 {
		t.Fatalf("SetDefaultWorkers returned %d, want 1", back)
	}
}

// TestPooledSweepsMatchSerialKernels: the BLAS1 sweeps the solvers route
// through Exec are elementwise, so on any pool size — chunk boundaries that
// are not multiples of the microkernels' four rows included — they must
// produce the bits of the serial kernel, with the solvers' aliasings
// (p = u + β·p, r = b − r). A dot's allocations stay off the solve's
// per-iteration path.
func TestPooledSweepsMatchSerialKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := parallelThreshold + 37
	a, b, c, w := randVec(rng, n), randVec(rng, n), randVec(rng, n), randVec(rng, n)
	src := randBlock(rng, n, 3)
	clone := func(v []float64) []float64 { return append([]float64(nil), v...) }
	run := func(e Exec) [][]float64 {
		axpy, xpay, sub, had, cp, tt := clone(b), clone(b), clone(b), make([]float64, n), make([]float64, n), make([]float64, n)
		e.Axpy(-0.37, a, axpy)
		e.XpayInto(xpay, a, 1.9, xpay)
		e.Sub(sub, a, sub)
		e.HadamardInto(had, a, b)
		e.Copy(cp, c)
		e.ThreeTermInto(tt, 1.3, a, 0.7, b, w)
		blk := NewBlock(n, 3)
		e.CopyBlock(blk, src)
		return append([][]float64{axpy, xpay, sub, had, cp, tt}, blk.Cols...)
	}
	want := run(Serial)
	for _, workers := range []int{2, 3, 7} {
		prev := pool.SetDefaultWorkers(workers)
		got := run(Pooled)
		pool.SetDefaultWorkers(prev)
		for k := range want {
			for i := range want[k] {
				if got[k][i] != want[k][i] {
					t.Fatalf("workers=%d: sweep %d differs from the serial kernel at row %d", workers, k, i)
				}
			}
		}
	}
	prev := pool.SetDefaultWorkers(2)
	defer pool.SetDefaultWorkers(prev)
	if allocs := testing.AllocsPerRun(50, func() { Pooled.Dot(a, b) }); allocs > 3 {
		t.Fatalf("pooled Dot allocates %v objects per call, want ≤ 3 (partials, body, job)", allocs)
	}
}
