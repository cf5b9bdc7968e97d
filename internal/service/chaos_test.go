package service

import (
	"strings"
	"testing"
	"time"

	"spcg/internal/fault"
)

// TestChaosHarness is the in-process chaos acceptance run: 200 requests mix
// healthy solves, s=8 and s=16 monomial breakdowns on an ill-conditioned
// operator, and unreachable-tolerance stagnators, while the chaos layer
// injects panics and SpMV soft errors into every solve and arms detection
// every chaosDetectEvery checks. The resilience layer must keep the daemon
// alive (a leaked panic fails the test process) and drive every job to a
// terminal state. Every breakdown request is reported under the method it
// asked for, with its breakdown or as stagnated; the s=16 class ends on the
// rollback budget at least once; and every stagnator ends on its stagnation
// window, well before half its wall-clock deadline — each unless an injected
// panic failed it first.
func TestChaosHarness(t *testing.T) {
	const (
		total        = 200
		stagDeadline = 8 * time.Second
	)
	s := New(Config{
		Workers: 4, QueueDepth: total + 8,
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
		case i < 40 && i%5 == 2:
			// stagnator: grinds at the residual floor forever. Its deadline
			// counts from submission, so the eight go among the first 40
			// jobs: at the back of the queue, under the race detector beside
			// other packages' tests, the last ones ran out of deadline
			// before their stagnation window could end them.
			classOf[i] = "stagnation"
			req = chaosStagnatorReq(stagDeadline)
		case i%7 == 3:
			// Rollback to stagnation: the s=8 breakdown comes after a
			// passed probe, so each rollback resumes from a later
			// checkpoint, and the run mostly ends on its stagnation window.
			classOf[i] = "breakdown"
			req = breakdownReq()
		case i%7 == 5:
			// Rollback to the budget: the s=16 Gram system fails in the
			// first block, before any probe has passed, so every rollback
			// restores the opening state and meets the same failure.
			classOf[i] = "rollback"
			req = breakdownReq()
			req.S = 16
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

	var stagnated, panicked, budgetEnds int
	for i, j := range jobs {
		st := j.status()
		if !st.State.terminal() {
			t.Fatalf("job %d (%s): non-terminal state %s after done", i, classOf[i], st.State)
		}
		if st.Result == nil {
			t.Fatalf("job %d (%s): terminal without a result", i, classOf[i])
		}
		injected := st.State == JobFailed && strings.Contains(st.Result.Error, "injected panic")
		// Every stagnator ends on its stagnation window, unless an injected
		// panic failed it first.
		if classOf[i] == "stagnation" && st.State != JobStagnated && !injected {
			t.Errorf("stagnator %d ended %s (%s), want stagnated", i, st.State, st.Result.Error)
		}
		// Every breakdown request is reported under the method it asked
		// for, with its breakdown or as stagnated: nothing reroutes it.
		if (classOf[i] == "breakdown" || classOf[i] == "rollback") && !injected &&
			(st.Result.Method != "spcg" || (st.Result.Breakdown == "" && st.State != JobStagnated)) {
			t.Errorf("%s job %d ended %s under %q (breakdown %q), want spcg with a breakdown or stagnated",
				classOf[i], i, st.State, st.Result.Method, st.Result.Breakdown)
		}
		if classOf[i] == "rollback" && strings.Contains(st.Result.Breakdown, "[rollback-budget]") {
			budgetEnds++
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
			if injected {
				panicked++
			}
		}
	}
	if stagnated < 1 {
		t.Errorf("stagnated jobs = %d, want ≥ 1 (no stagnation window ended a solve)", stagnated)
	}
	if budgetEnds < 1 {
		t.Errorf("rollback-budget breakdowns = %d, want ≥ 1 (no s=16 request exhausted its rollbacks)", budgetEnds)
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
	if m.Resilience.Stagnated != int64(stagnated) {
		t.Errorf("stagnated_total = %d but %d jobs report stagnated", m.Resilience.Stagnated, stagnated)
	}
	// Accounting closes: every admitted job landed in exactly one terminal bucket.
	if got := m.Completed + m.Failed + m.Cancelled; got != total {
		t.Errorf("terminal accounting = %d (done %d, failed %d, cancelled %d), want %d",
			got, m.Completed, m.Failed, m.Cancelled, total)
	}
	if h := m.Resilience.Health; h != "healthy" {
		t.Errorf("post-chaos health = %q, want healthy", h)
	}
	t.Logf("chaos run: %d jobs — %d stagnated, %d panicked, %d on the rollback budget", total, stagnated, panicked, budgetEnds)
}

// chaosStagnatorReq is the harness's own stagnator, stagnatorReq on a smaller
// grid: on poisson2d:24 the solve reaches its floor and the stagnation window
// ends it at iteration 459 (stagnatorReq's poisson2d:128 takes 741 iterations
// of 28 times the work). Under the race detector, where the CSR row walk runs
// its instrumented Go loop, with another package's race tests on the same two
// cores, the eight waited at most 1.8 s and ran at most 0.9 s; on
// poisson2d:48 they waited up to 4.8 s and ran up to 3.2 s, close to both the
// deadline and its half.
func chaosStagnatorReq(deadline time.Duration) SolveRequest {
	req := stagnatorReq(deadline)
	req.Matrix = "poisson2d:24"
	return req
}
