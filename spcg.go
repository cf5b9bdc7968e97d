// Package spcg is a pure-Go implementation of s-step Preconditioned
// Conjugate Gradient methods, reproducing "Numerical Properties and
// Scalability of s-Step Preconditioned Conjugate Gradient Methods"
// (Mayer & Gansterer, SC 2025 ScalAH).
//
// It provides standard PCG, the three-term PCG3 baseline, and the four
// s-step variants the paper compares — sPCGmon (Chronopoulos & Gear's
// original monomial-basis method), sPCG (the paper's generalization to
// arbitrary basis types), CA-PCG (Toledo) and CA-PCG3 (Hoemmen) — together
// with the substrates they need: polynomial bases (monomial, Newton,
// Chebyshev), the matrix powers kernel, Jacobi/Chebyshev/block-Jacobi/SSOR/
// IC(0) preconditioners, spectral estimation, sparse matrix generators, and
// a virtual-cluster cost model that reproduces the paper's scalability
// experiments without MPI.
//
// Quick start:
//
//	a := spcg.Poisson3D(32, 32, 32)
//	b := make([]float64, a.Dim())
//	for i := range b { b[i] = 1 }
//	m, _ := spcg.NewJacobi(a)
//	x, stats, err := spcg.SPCG(a, m, b, spcg.Options{S: 10, Basis: spcg.Chebyshev})
//
// The internal packages hold the implementation; this package is the stable
// surface examples and downstream users build against.
package spcg

import (
	"spcg/internal/basis"
	"spcg/internal/dist"
	"spcg/internal/eig"
	"spcg/internal/fault"
	"spcg/internal/obs"
	"spcg/internal/precond"
	"spcg/internal/solver"
	"spcg/internal/sparse"
	"spcg/internal/spmd"
)

// Matrix is a square sparse matrix in CSR form.
type Matrix = sparse.CSR

// Options configures a solver run; see solver.Options for field docs.
type Options = solver.Options

// Stats reports what a run did; see solver.Stats.
type Stats = solver.Stats

// Preconditioner is a fixed SPD operator M⁻¹.
type Preconditioner = precond.Interface

// BasisType selects the s-step polynomial basis.
type BasisType = basis.Type

// Basis types for Options.Basis.
const (
	Monomial  = basis.Monomial
	Newton    = basis.Newton
	Chebyshev = basis.Chebyshev
)

// Convergence criteria for Options.Criterion.
const (
	TrueResidual2Norm      = solver.TrueResidual2Norm
	RecursiveResidual2Norm = solver.RecursiveResidual2Norm
	RecursiveResidualMNorm = solver.RecursiveResidualMNorm
)

// Solvers. Each solves A·x = b and returns the solution, run statistics and
// an error for invalid inputs (numerical breakdown is reported in Stats, not
// as an error).
var (
	// PCG is standard preconditioned CG (paper Alg. 1).
	PCG = solver.PCG
	// PCG3 is the three-term recurrence variant (Rutishauser).
	PCG3 = solver.PCG3
	// SPCGMon is the original monomial-basis s-step PCG (paper Alg. 2).
	SPCGMon = solver.SPCGMon
	// SPCG is the paper's contribution: s-step PCG with arbitrary basis
	// types (paper Alg. 5+6).
	SPCG = solver.SPCG
	// CAPCG is Toledo's communication-avoiding PCG (paper Alg. 3).
	CAPCG = solver.CAPCG
	// CAPCG3 is Hoemmen's communication-avoiding three-term PCG (Alg. 4).
	CAPCG3 = solver.CAPCG3
	// SPCGAdaptive is SPCG with an adaptive block size: s halves on
	// breakdown/stagnation down to plain PCG (extension; see DESIGN.md).
	SPCGAdaptive = solver.SPCGAdaptive
)

// Matrix generators.
var (
	// Poisson1D, Poisson2D, Poisson3D are Dirichlet Laplacians; Poisson3D
	// is the paper's Figure 1 problem (256³ there).
	Poisson1D = sparse.Poisson1D
	Poisson2D = sparse.Poisson2D
	Poisson3D = sparse.Poisson3D
	// VarCoeff2D / VarCoeff3D are variable-coefficient diffusion operators
	// with a conditioning dial.
	VarCoeff2D = sparse.VarCoeff2D
	VarCoeff3D = sparse.VarCoeff3D
	// ReadMatrixMarket and WriteMatrixMarket exchange MatrixMarket files.
	ReadMatrixMarket  = sparse.ReadMatrixMarket
	WriteMatrixMarket = sparse.WriteMatrixMarket
)

// Preconditioners.
var (
	// NewJacobi is the diagonal preconditioner (paper Table 3 / Fig. 1).
	NewJacobi = precond.NewJacobi
	// NewChebyshevPrec is the degree-d polynomial preconditioner (paper
	// Tables 2–3 use degree 3).
	NewChebyshevPrec = precond.NewChebyshev
	// NewBlockJacobi, NewSSOR, NewIC0 are additional preconditioners.
	NewBlockJacobi = precond.NewBlockJacobi
	NewSSOR        = precond.NewSSOR
	NewIC0         = precond.NewIC0
	// NewIdentity is the trivial preconditioner.
	NewIdentity = precond.NewIdentity
)

// EstimateSpectrum runs k PCG iterations to estimate the spectrum of M⁻¹A
// (Ritz values plus widened bounds), as the paper does for the Chebyshev
// basis/preconditioner and Newton shifts. applyM may be nil for M = I.
func EstimateSpectrum(a *Matrix, applyM func(dst, src []float64), iterations int) (*eig.Estimate, error) {
	return eig.RitzFromPCG(a, applyM, eig.Options{Iterations: iterations})
}

// Cluster models a virtual distributed machine bound to a matrix.
type Cluster = dist.Cluster

// Machine describes modeled cluster hardware.
type Machine = dist.Machine

// Tracker charges solver events to a cluster's cost model; pass one in
// Options.Tracker to obtain Stats.SimTime.
type Tracker = dist.Tracker

// DefaultMachine returns the calibration used for the paper's experiments
// (128 ranks/node).
var DefaultMachine = dist.DefaultMachine

// NewCluster builds a virtual cluster of the given node count for a matrix.
var NewCluster = dist.NewCluster

// NewTracker binds a cost tracker to a cluster.
var NewTracker = dist.NewTracker

// DistributedPCG runs Jacobi-preconditioned CG on p real SPMD goroutine
// ranks with explicit halo exchanges and collectives (internal/spmd): the
// executable counterpart of the modeled cluster.
var DistributedPCG = spmd.PCGJacobi

// DistributedSPCG runs the paper's sPCG on p real SPMD ranks (Jacobi
// preconditioner, explicit basis parameters).
var DistributedSPCG = spmd.SPCGJacobi

// SPMDResult reports a distributed solve.
type SPMDResult = spmd.Result

// FaultInjector produces seeded, reproducible soft errors: silent data
// corruption of SpMV outputs or state vectors. Pass one in Options.Injector to
// attack a solver run and set Options.DetectEvery to enable detection +
// rollback recovery. A nil *FaultInjector injects nothing.
type FaultInjector = fault.Injector

// FaultConfig selects which faults a FaultInjector produces; the zero value
// injects nothing.
type FaultConfig = fault.Config

// FaultCounts reports what an injector actually injected.
type FaultCounts = fault.Counts

// NewFaultInjector builds an injector whose whole fault stream is determined
// by the seed.
var NewFaultInjector = fault.New

// ErrCancelled is returned (wrapped) by every solver when Options.Cancel
// closes before convergence; the partial solution and Stats are still
// returned alongside it.
var ErrCancelled = solver.ErrCancelled

// ErrBreakdown tags Stats.Breakdown (wrapped) when an s-step solve hits a
// singular Gram system or a non-positive curvature — the numerical failure
// mode the paper's s-halving cascade (SPCGAdaptive) and the solve service's
// circuit breakers mitigate. Test with errors.Is(stats.Breakdown,
// spcg.ErrBreakdown).
var ErrBreakdown = solver.ErrBreakdown

// Tracer records timestamped phase spans (basis build, Gram, block update,
// preconditioner apply, collectives, …) in a fixed-size ring.
// Pass one in Options.Trace to obtain Stats.Phases, a per-phase breakdown of
// a solve mirroring the paper's Table 3. A nil *Tracer records nothing and
// costs only a branch per instrumented operation, so instrumentation is
// pay-for-use. Distinct from Tracker, which charges the modeled cost of a
// virtual cluster; a Tracer measures real wall time on this machine.
type Tracer = obs.Tracer

// NewPhaseTracer allocates a Tracer with the given ring capacity (<= 0 means
// obs.DefaultRingCapacity). Per-phase aggregates are exact even after the
// ring wraps; only individual spans are dropped.
var NewPhaseTracer = obs.New

// PhaseStat is one row of a phase breakdown: a phase name with its span
// count, total seconds, and summed payload (e.g. values reduced per
// collective); see Stats.Phases.
type PhaseStat = obs.PhaseStat

// PhaseBreakdown is a full per-solve phase report with retained spans and
// drop counts; obtain one from Tracer.Breakdown and render it with
// Breakdown.Render.
type PhaseBreakdown = obs.Breakdown
