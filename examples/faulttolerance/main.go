// Fault tolerance: attack a solve with seeded silent data corruption and
// show that (a) an unprotected run "converges" by its recursive residual
// while the true residual is garbage, and (b) the detection + rollback guard
// recovers true convergence from the same fault stream.
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"

	"spcg"
)

func main() {
	// 2D Poisson problem, Jacobi preconditioner, ones right-hand side.
	a := spcg.Poisson2D(48, 48)
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1
	}
	m, err := spcg.NewJacobi(a)
	if err != nil {
		log.Fatal(err)
	}
	const (
		tol  = 1e-8
		seed = 1
		rate = 0.05 // per-SpMV probability of one corrupted output element
	)
	fmt.Printf("problem: n=%d, nnz=%d, corruption rate %g/SpMV, seed %d\n\n",
		a.Dim(), a.NNZ(), rate, seed)

	// Unprotected sPCG under corruption: depending on where the faults land
	// the run either breaks down outright or "converges" by its recursive
	// residual while the true residual is garbage.
	unprot := spcg.Options{S: 6, Basis: spcg.Chebyshev, Tol: tol}
	unprot.Injector = spcg.NewFaultInjector(seed, spcg.FaultConfig{SpMVCorruptProb: rate})
	_, us, err := spcg.SPCG(a, m, b, unprot)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unprotected sPCG: %d iterations, TRUE rel residual %.1e\n",
		us.Iterations, us.TrueRelResidual)
	if us.Breakdown != nil {
		fmt.Printf("  failed: %v\n", us.Breakdown)
	} else if us.TrueRelResidual > tol {
		fmt.Printf("  silently wrong: recursive rel %.1e looks converged\n", us.FinalRelative)
	}
	fmt.Printf("  injector: %v\n\n", unprot.Injector)

	// Protected run, same fault stream: probe the true residual every outer
	// iteration, roll back to the last verified checkpoint on divergence.
	prot := spcg.Options{S: 6, Basis: spcg.Chebyshev, Tol: tol}
	prot.Injector = spcg.NewFaultInjector(seed, spcg.FaultConfig{SpMVCorruptProb: rate})
	prot.DetectEvery = 1
	_, ps, err := spcg.SPCG(a, m, b, prot)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("protected sPCG:   converged=%v in %d iterations, TRUE rel %.1e\n",
		ps.Converged, ps.Iterations, ps.TrueRelResidual)
	fmt.Printf("  detected %d corruptions, rolled back %d times\n",
		ps.DetectedFaults, ps.Rollbacks)
}
