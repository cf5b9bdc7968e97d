package service

import (
	"strings"
	"testing"
	"time"

	"spcg/internal/fault"
)

// TestChaosHarness is the in-process chaos acceptance run: 200 requests mix
// healthy solves, guaranteed s=8 monomial breakdowns on an ill-conditioned
// operator, and unreachable-tolerance stagnators, while the chaos layer
// injects panics, SpMV soft errors and modeled comm faults into every solo
// solve. The resilience layer must keep the daemon alive (a leaked panic
// fails the test process), drive every job to a terminal state, open the
// breakdown circuit and serve at least one degraded-but-converged answer,
// and kill stagnators well before half their wall-clock deadline.
func TestChaosHarness(t *testing.T) {
	const (
		total        = 200
		stagDeadline = 8 * time.Second
	)
	s := New(Config{
		Workers: 4, QueueDepth: total + 8,
		WatchdogInterval: 25 * time.Millisecond, StagnationWindow: 400 * time.Millisecond,
		BreakerFailures: 2, BreakerCooldown: 200 * time.Millisecond,
		Chaos: &ChaosConfig{
			Seed:      42,
			PanicProb: 0.05,
			Fault:     fault.Config{SpMVCorruptProb: 5e-4},
		},
	})
	defer shutdownServer(t, s)

	healthy := []SolveRequest{
		{Matrix: "poisson2d:16", Method: "pcg"},
		{Matrix: "poisson2d:24", Method: "spcg", S: 4},
		{Matrix: "poisson2d:16", Method: "capcg", S: 4},
		{Matrix: "poisson2d:24", Method: "pcg3"},
	}
	classOf := make([]string, total)
	jobs := make([]*job, 0, total)
	for i := 0; i < total; i++ {
		var req SolveRequest
		switch {
		case i%25 == 7: // stagnator: grinds at the residual floor forever
			classOf[i] = "stagnation"
			req = SolveRequest{
				Matrix: "poisson2d:64", Method: "pcg", Precond: "identity",
				Tol: 1e-300, MaxIters: 500000,
				TimeoutMS: int(stagDeadline / time.Millisecond), NoBatch: true,
			}
		case i%7 == 3: // guaranteed Gram breakdown → breaker fuel
			classOf[i] = "breakdown"
			req = breakdownReq()
		default:
			classOf[i] = "healthy"
			req = healthy[i%len(healthy)]
		}
		j, err := s.Submit(req)
		if err != nil {
			t.Fatalf("chaos submit %d (%s): %v", i, classOf[i], err)
		}
		jobs = append(jobs, j)
	}

	deadline := time.After(120 * time.Second)
	for i, j := range jobs {
		select {
		case <-j.done:
		case <-deadline:
			t.Fatalf("chaos job %d (%s) not terminal in time: state=%s", i, classOf[i], j.status().State)
		}
	}

	var stagnated, degradedConverged, panicked int
	for i, j := range jobs {
		st := j.status()
		if !st.State.terminal() {
			t.Fatalf("job %d (%s): non-terminal state %s after done", i, classOf[i], st.State)
		}
		if st.Result == nil {
			t.Fatalf("job %d (%s): terminal without a result", i, classOf[i])
		}
		switch st.State {
		case JobStagnated:
			stagnated++
			if st.Started == nil || st.Finished == nil {
				t.Fatalf("stagnated job %d missing timestamps", i)
			}
			if ran := st.Finished.Sub(*st.Started); ran >= stagDeadline/2 {
				t.Errorf("stagnated job %d ran %s, want under half the %s deadline", i, ran, stagDeadline)
			}
		case JobFailed:
			if st.Result.Error == "" {
				t.Errorf("failed job %d (%s) has no error", i, classOf[i])
			}
			if strings.Contains(st.Result.Error, "injected panic") {
				panicked++
			}
		}
		if st.Result.DegradedFrom != "" && st.Result.Converged {
			degradedConverged++
		}
	}
	if stagnated < 1 {
		t.Errorf("stagnated jobs = %d, want ≥ 1 (watchdog never fired)", stagnated)
	}
	if degradedConverged < 1 {
		t.Errorf("degraded-and-converged jobs = %d, want ≥ 1 (breaker fallback never served)", degradedConverged)
	}

	m := s.Metrics()
	if m.Resilience.SolverPanics < 1 {
		t.Errorf("solver_panics_total = %d, want ≥ 1 (chaos injects at 5%%)", m.Resilience.SolverPanics)
	}
	if int64(panicked) != m.Resilience.SolverPanics {
		t.Errorf("jobs failed by panic = %d but solver_panics_total = %d", panicked, m.Resilience.SolverPanics)
	}
	if got := s.chaos.injectedPanics(); got != float64(m.Resilience.SolverPanics) {
		t.Errorf("chaos injected %v panics but the guard recovered %d", got, m.Resilience.SolverPanics)
	}
	if m.Resilience.BreakerOpened < 1 {
		t.Errorf("breaker_opened_total = %d, want ≥ 1 (guaranteed breakdowns)", m.Resilience.BreakerOpened)
	}
	if m.Resilience.DegradedSolves < 1 {
		t.Errorf("degraded_solves_total = %d, want ≥ 1", m.Resilience.DegradedSolves)
	}
	if m.Resilience.Stagnated != int64(stagnated) {
		t.Errorf("stagnated_total = %d but %d jobs report stagnated", m.Resilience.Stagnated, stagnated)
	}
	// Accounting closes: every admitted job landed in exactly one terminal bucket.
	if got := m.Completed + m.Failed + m.Cancelled; got != total {
		t.Errorf("terminal accounting = %d (done %d, failed %d, cancelled %d), want %d",
			got, m.Completed, m.Failed, m.Cancelled, total)
	}
	if h := m.Resilience.Health; h != "healthy" && h != "degraded" {
		t.Errorf("post-chaos health = %q, want healthy or degraded (not draining)", h)
	}
	t.Logf("chaos run: %d jobs — %d stagnated, %d panicked, %d degraded+converged, breakers opened %d / restored %d",
		total, stagnated, panicked, degradedConverged, m.Resilience.BreakerOpened, m.Resilience.BreakerRestored)
}
