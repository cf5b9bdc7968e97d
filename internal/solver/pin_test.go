package solver

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"spcg/internal/basis"
	"spcg/internal/dist"
	"spcg/internal/fault"
	"spcg/internal/pool"
	"spcg/internal/precond"
	"spcg/internal/sparse"
)

// The local-backend pins below were recorded at the commit before the solver
// bodies were rewritten against the execution backend (179ef99), by running
// exactly pinSolve there. They assert — rather than assume — that the local
// backend performs the same arithmetic in the same order: the solution bit
// for bit, every event count, and the modeled time (whose floating-point
// accumulation fixes the order of the cost-model charges too). One fixed
// system, one pool worker, all seven registry methods under all three
// criteria; plus the fault-injection, detection, rollback and
// residual-replacement paths.
//
// The pins are recorded on amd64; architectures that contract a·b+c into a
// fused multiply-add round differently, so the test runs on amd64 only.

type pinRow struct {
	method                                    string
	crit                                      Criterion
	xHash                                     uint64
	iters, mv, prec, allreduces, reduceValues int
	simTimeBits                               uint64
}

var localBackendPins = []pinRow{
	{"adaptive", RecursiveResidualMNorm, 0xcf70ec392a4739a8, 120, 121, 121, 24, 1410, 0x3f5ef5ece2c9539b},
	{"capcg", RecursiveResidualMNorm, 0xe752a5a4e642da64, 120, 217, 217, 24, 2904, 0x3f6922bd04bf0324},
	{"capcg3", RecursiveResidualMNorm, 0xe214e04ffea735b6, 120, 121, 145, 24, 2904, 0x3f5fdfd73122e482},
	{"pcg", RecursiveResidualMNorm, 0x1c587c6b2c4cc6d, 116, 117, 117, 233, 233, 0x3f7531ce9fa2bc42},
	{"pcg3", RecursiveResidualMNorm, 0x5adae89ca5350c8b, 117, 118, 118, 118, 235, 0x3f6b761712a380c1},
	{"spcg", RecursiveResidualMNorm, 0xcf70ec392a4739a8, 120, 121, 121, 24, 1410, 0x3f5ef5ece2c9539b},
	{"spcgmon", RecursiveResidualMNorm, 0xc8ab252ede2a66cd, 125, 126, 126, 25, 850, 0x3f601ee73d7af35a},
	{"adaptive", RecursiveResidual2Norm, 0xcf70ec392a4739a8, 120, 121, 121, 24, 1434, 0x3f5ef9a9760423b7},
	{"capcg", RecursiveResidual2Norm, 0xe752a5a4e642da64, 120, 217, 217, 24, 2928, 0x3f69249b4e5c6b34},
	{"capcg3", RecursiveResidual2Norm, 0xe214e04ffea735b6, 120, 121, 145, 24, 2928, 0x3f5fe393c45db4a7},
	{"pcg", RecursiveResidual2Norm, 0x3b4e0d019790f38f, 119, 120, 120, 240, 359, 0x3f75d2a6a41337ed},
	{"pcg3", RecursiveResidual2Norm, 0x58f9650e4be60981, 120, 121, 121, 122, 362, 0x3f6c537ac31fb2be},
	{"spcg", RecursiveResidual2Norm, 0xcf70ec392a4739a8, 120, 121, 121, 24, 1434, 0x3f5ef9a9760423b7},
	{"spcgmon", RecursiveResidual2Norm, 0xc8ab252ede2a66cd, 125, 126, 126, 25, 875, 0x3f6020d8c4e840b6},
	{"adaptive", TrueResidual2Norm, 0xcf70ec392a4739a8, 120, 146, 121, 49, 1435, 0x3f65432ed149e428},
	{"capcg", TrueResidual2Norm, 0xe752a5a4e642da64, 120, 242, 217, 49, 2929, 0x3f6eeaf564a43d71},
	{"capcg3", TrueResidual2Norm, 0xe214e04ffea735b6, 120, 146, 145, 49, 2929, 0x3f65b823f876ac78},
	{"pcg", TrueResidual2Norm, 0x3b4e0d019790f38f, 119, 239, 120, 359, 359, 0x3f81c88d2c4888c8},
	{"pcg3", TrueResidual2Norm, 0xa9e3cd6e8a523ded, 119, 239, 120, 240, 359, 0x3f7bca5d357c84d2},
	{"spcg", TrueResidual2Norm, 0xcf70ec392a4739a8, 120, 146, 121, 49, 1435, 0x3f65432ed149e428},
	{"spcgmon", TrueResidual2Norm, 0xc8ab252ede2a66cd, 125, 152, 126, 51, 876, 0x3f66225511d9fcce},
}

type faultPinRow struct {
	method                                    string
	xHash                                     uint64
	iters, mv, prec, allreduces, reduceValues int
	detected, rollbacks, replacements         int
	simTimeBits                               uint64
}

var localBackendFaultPins = []faultPinRow{
	{"pcg", 0x1c587c6b2c4cc6d, 132, 197, 129, 326, 326, 5, 9, 0, 0x3f7f521ed5433dce},
	{"spcg", 0xfaed94b0aa19aa3, 255, 311, 244, 119, 2786, 3, 6, 29, 0x3f7793ba126e8579},
	{"adaptive", 0xfaed94b0aa19aa3, 255, 311, 244, 119, 2786, 3, 6, 29, 0x3f7793ba126e8579},
}

func xHash(x []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x {
		u := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// pinSolve runs one registry method on the pinned system.
func pinSolve(t *testing.T, method string, opts Options) ([]float64, *Stats) {
	t.Helper()
	a := sparse.VarCoeff2D(24, 24, 2, 3)
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = math.Sin(float64(i)*0.37) + 0.25
	}
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dist.NewCluster(dist.DefaultMachine(), 2, a)
	if err != nil {
		t.Fatal(err)
	}
	opts.S, opts.Basis, opts.Tol, opts.Tracker = 5, basis.Chebyshev, 1e-9, dist.NewTracker(cl)
	x, st, err := methods[method](a, m, b, opts)
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	if !st.Converged {
		t.Fatalf("%s: did not converge: %v", method, st.Breakdown)
	}
	return x, st
}

func TestLocalBackendPinnedToParent(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pins recorded on amd64")
	}
	prev := pool.SetDefaultWorkers(1)
	defer pool.SetDefaultWorkers(prev)
	if len(localBackendPins) != 3*len(methods) {
		t.Fatalf("%d pins for %d registry methods × 3 criteria", len(localBackendPins), len(methods))
	}
	for _, pin := range localBackendPins {
		x, st := pinSolve(t, pin.method, Options{Criterion: pin.crit})
		got := pinRow{pin.method, pin.crit, xHash(x), st.Iterations, st.MVProducts, st.PrecApplies, st.Allreduces, st.AllreduceValues, math.Float64bits(st.SimTime)}
		if got != pin {
			t.Errorf("%s/%v:\n got %+v\nwant %+v", pin.method, pin.crit, got, pin)
		}
	}
	for _, pin := range localBackendFaultPins {
		x, st := pinSolve(t, pin.method, Options{
			Criterion: RecursiveResidualMNorm, DetectEvery: 2, ResidualReplacement: true,
			Injector: fault.New(42, fault.Config{SpMVCorruptProb: 0.03, VectorCorruptProb: 0.01}),
		})
		got := faultPinRow{pin.method, xHash(x), st.Iterations, st.MVProducts, st.PrecApplies, st.Allreduces, st.AllreduceValues,
			st.DetectedFaults, st.Rollbacks, st.ResidualReplacements, math.Float64bits(st.SimTime)}
		if got != pin {
			t.Errorf("%s with faults:\n got %+v\nwant %+v", pin.method, got, pin)
		}
	}
}
