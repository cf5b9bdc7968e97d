package service

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spcg/internal/resilience"
	"spcg/internal/sparse"
)

// breakdownReq deterministically breaks down: the monomial basis at s=8 on
// the strongly anisotropic operator produces a singular Gram system within a
// couple of outer iterations (see the paper's ill-conditioning discussion),
// so the solve ends done-but-not-converged — a breaker failure signal.
func breakdownReq() SolveRequest {
	return SolveRequest{
		Matrix: "aniso2d:30:0.0001", Method: "spcg", S: 8,
		Basis: "monomial", Precond: "identity", NoBatch: true,
	}
}

func waitJob(t *testing.T, j *job, timeout time.Duration) JobStatus {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(timeout):
		t.Fatalf("job %s did not reach a terminal state within %s (state=%s)", j.id, timeout, j.status().State)
	}
	return j.status()
}

// TestPanicIsolationKeepsDaemonAlive: a panicking solve becomes a failed job
// with a stack-tagged error; the worker survives and keeps serving.
func TestPanicIsolationKeepsDaemonAlive(t *testing.T) {
	s := New(Config{
		Workers: 2, StagnationWindow: -1, BreakerFailures: -1,
		Chaos: &ChaosConfig{Seed: 7, PanicProb: 1}, // every solo solve panics
	})
	defer shutdownServer(t, s)

	for i := 0; i < 3; i++ {
		j, err := s.Submit(SolveRequest{Matrix: "poisson2d:16", Method: "pcg", NoBatch: true})
		if err != nil {
			t.Fatal(err)
		}
		st := waitJob(t, j, 30*time.Second)
		if st.State != JobFailed {
			t.Fatalf("panicking job %d: state = %s, want failed (%+v)", i, st.State, st.Result)
		}
		if !strings.Contains(st.Result.Error, "injected panic") {
			t.Errorf("panicking job %d: error %q does not name the panic", i, st.Result.Error)
		}
		if !strings.Contains(st.Result.Error, "goroutine") {
			t.Errorf("panicking job %d: error %q carries no stack", i, st.Result.Error)
		}
	}
	// Coalesced block solves bypass the solo-path injection, and a batch of
	// one runs solo, so two requests must coalesce: hold both workers inside
	// the registry on a matrix whose build waits for the test (no solve can
	// hold them here, every solo solve panics) and queue the pair behind them.
	// The same workers that absorbed the panics still solve correctly.
	built := make(chan struct{})
	s.reg.mu.Lock()
	s.reg.byKey["gate"] = &matrixEntry{Name: "gate", build: func() *sparse.CSR {
		<-built
		return sparse.Poisson2D(4, 4)
	}}
	s.reg.mu.Unlock()
	var gates, block []*job
	for i := 0; i < 2; i++ {
		gates = append(gates, mustSubmit(t, s, SolveRequest{Matrix: "gate", Method: "pcg", NoBatch: true}))
	}
	for i := 0; i < 2; i++ {
		block = append(block, mustSubmit(t, s, SolveRequest{Matrix: "poisson2d:16", Method: "pcg"}))
	}
	close(built)
	for i, j := range gates {
		if st := waitJob(t, j, 30*time.Second); st.State != JobFailed {
			t.Fatalf("gate job %d: state = %s, want failed by the injected panic", i, st.State)
		}
	}
	for i, j := range block {
		if st := waitJob(t, j, 30*time.Second); st.State != JobDone || !st.Result.Converged || st.Result.BatchSize != 2 {
			t.Fatalf("post-panic solve %d: state=%s result=%+v", i, st.State, st.Result)
		}
	}
	m := s.Metrics()
	if m.Resilience.SolverPanics != 5 {
		t.Errorf("solver_panics_total = %d, want 5", m.Resilience.SolverPanics)
	}
}

// TestStagnationWatchdogKillsStalledSolve: a solve grinding at the residual
// floor is killed by the watchdog well before its wall-clock deadline and
// reported as stagnated, not cancelled.
func TestStagnationWatchdogKillsStalledSolve(t *testing.T) {
	s := New(Config{
		Workers: 1, BreakerFailures: -1,
		WatchdogInterval: 20 * time.Millisecond, StagnationWindow: 250 * time.Millisecond,
	})
	defer shutdownServer(t, s)

	const deadline = 20 * time.Second
	j, err := s.Submit(SolveRequest{
		Matrix: "poisson2d:64", Method: "pcg", Precond: "identity",
		Tol: 1e-300, MaxIters: 500000, TimeoutMS: int(deadline / time.Millisecond), NoBatch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j, deadline)
	if st.State != JobStagnated {
		t.Fatalf("state = %s, want stagnated (%+v)", st.State, st.Result)
	}
	if !strings.Contains(st.Result.Error, "stagnated") || !strings.Contains(st.Result.Error, "no residual progress") {
		t.Errorf("stagnation error %q lacks the watchdog diagnosis", st.Result.Error)
	}
	if st.Result.Iterations == 0 {
		t.Errorf("watchdog kill should report partial stats: %+v", st.Result)
	}
	if st.Started == nil || st.Finished == nil {
		t.Fatalf("terminal job missing timestamps: %+v", st)
	}
	if ran := st.Finished.Sub(*st.Started); ran >= deadline/2 {
		t.Errorf("stagnated solve ran %s, want well under half the %s deadline", ran, deadline)
	}
	if got := s.Metrics().Resilience.Stagnated; got != 1 {
		t.Errorf("stagnated_total = %d, want 1", got)
	}
}

// TestBreakerOpensAndDegrades: repeated breakdowns open the circuit for
// (matrix, spcg, s=8) and the next request runs the adaptive cascade instead,
// converging and recording the downgrade.
func TestBreakerOpensAndDegrades(t *testing.T) {
	s := New(Config{
		Workers: 1, StagnationWindow: -1,
		BreakerFailures: 2, BreakerCooldown: time.Hour, // no probes mid-test
	})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		j, err := s.Submit(breakdownReq())
		if err != nil {
			t.Fatal(err)
		}
		st := waitJob(t, j, 30*time.Second)
		if st.State != JobDone || st.Result.Converged || st.Result.Breakdown == "" {
			t.Fatalf("breakdown run %d: state=%s result=%+v", i, st.State, st.Result)
		}
		if st.Result.Method != "spcg" || st.Result.DegradedFrom != "" {
			t.Fatalf("breakdown run %d ran %q (degraded from %q), want the fast path", i, st.Result.Method, st.Result.DegradedFrom)
		}
	}

	// Third request: the breaker is open, so the ladder reroutes to the
	// adaptive s-halving cascade — which survives the breakdown and converges.
	j, err := s.Submit(breakdownReq())
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j, 30*time.Second)
	if st.State != JobDone || !st.Result.Converged {
		t.Fatalf("degraded solve: state=%s result=%+v", st.State, st.Result)
	}
	if st.Result.Method != "adaptive" || st.Result.DegradedFrom != "spcg" {
		t.Errorf("degraded solve ran %q degraded from %q, want adaptive from spcg", st.Result.Method, st.Result.DegradedFrom)
	}

	m := s.Metrics()
	if m.Resilience.BreakerOpened != 1 || m.Resilience.DegradedSolves != 1 || m.Resilience.BreakersOpen != 1 {
		t.Errorf("breaker metrics = %+v, want opened=1 degraded=1 open=1", m.Resilience)
	}
	if m.Resilience.Health != "degraded" {
		t.Errorf("health = %q, want degraded while a breaker is open", m.Resilience.Health)
	}
	hs := s.HealthSnapshot()
	if len(hs.OpenBreakers) != 1 || !strings.Contains(hs.OpenBreakers[0], "spcg(s=8)") {
		t.Errorf("open breakers = %v, want the spcg(s=8) circuit", hs.OpenBreakers)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz while degraded: HTTP %d, want 200 (degraded still serves)", resp.StatusCode)
	}
}

// TestBreakerProbeRestoresFastPath: after the cooldown a half-open probe runs
// the gated method again; a success closes the circuit and restores health.
func TestBreakerProbeRestoresFastPath(t *testing.T) {
	s := New(Config{
		Workers: 1, StagnationWindow: -1,
		BreakerFailures: 1, BreakerCooldown: 200 * time.Millisecond,
	})
	defer shutdownServer(t, s)

	j, err := s.Submit(breakdownReq())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j, 30*time.Second); st.Result.Converged {
		t.Fatalf("expected a breakdown, got %+v", st.Result)
	}
	if got := s.Metrics().Resilience.BreakerOpened; got != 1 {
		t.Fatalf("breaker_opened_total = %d, want 1 after a single failure (Failures=1)", got)
	}

	time.Sleep(300 * time.Millisecond) // past the cooldown: next request probes

	// Same breaker key (matrix, spcg, s=8) but a well-conditioned basis and
	// preconditioner: the probe succeeds and the circuit closes.
	probe := breakdownReq()
	probe.Basis, probe.Precond = "chebyshev", "jacobi"
	j, err = s.Submit(probe)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j, 30*time.Second)
	if st.State != JobDone || !st.Result.Converged {
		t.Fatalf("probe solve: state=%s result=%+v", st.State, st.Result)
	}
	if st.Result.Method != "spcg" || st.Result.DegradedFrom != "" {
		t.Errorf("probe ran %q (degraded from %q), want the fast path back", st.Result.Method, st.Result.DegradedFrom)
	}

	m := s.Metrics()
	if m.Resilience.BreakerRestored != 1 || m.Resilience.BreakersOpen != 0 {
		t.Errorf("after probe: restored=%d open=%d, want 1/0", m.Resilience.BreakerRestored, m.Resilience.BreakersOpen)
	}
	if m.Resilience.Health != "healthy" {
		t.Errorf("health = %q, want healthy after restore", m.Resilience.Health)
	}
}

// TestLoadSheddingAndHealthz: saturation returns 429 + Retry-After and flips
// health to degraded; shutdown flips it to draining with a 503.
func TestLoadSheddingAndHealthz(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, StagnationWindow: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz idle: HTTP %d", resp.StatusCode)
	}
	if h := s.Health(); h != resilience.Healthy {
		t.Fatalf("idle health = %s, want healthy", h)
	}

	blocker, err := s.Submit(SolveRequest{
		Matrix: "poisson2d:96", Method: "pcg", Precond: "identity",
		Tol: 1e-300, MaxIters: 500000, NoBatch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The queue (depth 1) is full: the next submission is shed with a hint.
	code, st := postSolve(t, ts.URL, SolveRequest{Matrix: "poisson2d:12", Method: "pcg"})
	_ = st
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: HTTP %d, want 429", code)
	}
	resp, err = http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"matrix":"poisson2d:12"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Errorf("shed response: HTTP %d Retry-After=%q, want 429 with a hint", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if h := s.Health(); h != resilience.Degraded {
		t.Errorf("health after shedding = %s, want degraded", h)
	}
	if rate := s.Metrics().Resilience.ShedRate; rate <= 0 {
		t.Errorf("shed_rate = %v, want > 0", rate)
	}

	blocker.cancel()
	<-blocker.done
	shutdownServer(t, s)

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("/healthz draining: HTTP %d Retry-After=%q, want 503 with a hint", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if h := s.Health(); h != resilience.Draining {
		t.Errorf("health after shutdown = %s, want draining", h)
	}
}

// TestBatchMemberCancelMidBlock: cancelling one member of a coalesced block
// solve never aborts its companions — the survivors converge, and the block's
// outcome is recorded as a block solve.
func TestBatchMemberCancelMidBlock(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16, BatchMax: 3, StagnationWindow: -1})
	defer shutdownServer(t, s)

	release := holdWorker(t, s)
	req := SolveRequest{Matrix: "poisson2d:128", Method: "pcg", Precond: "identity", Tol: 1e-10}
	var jobs []*job
	for i := 0; i < 3; i++ {
		jobs = append(jobs, mustSubmit(t, s, req))
	}
	release()
	// Wait for the block to start, then cancel one member.
	for deadline := time.Now().Add(10 * time.Second); jobs[0].status().Started == nil; {
		if time.Now().After(deadline) {
			t.Fatal("batch never started")
		}
		time.Sleep(time.Millisecond)
	}
	jobs[0].cancel()

	states := make([]JobStatus, 3)
	for i, j := range jobs {
		states[i] = waitJob(t, j, 30*time.Second)
	}
	// Survivors: complete, converged, and solved as part of a block.
	for i := 1; i < 3; i++ {
		st := states[i]
		if st.State != JobDone || st.Result == nil || !st.Result.Converged {
			t.Errorf("survivor %d: state=%s result=%+v, want done+converged", i, st.State, st.Result)
		}
		if !st.Result.Batched || st.Result.BatchSize < 2 {
			t.Errorf("survivor %d: batched=%v size=%d, want a block of ≥ 2", i, st.Result.Batched, st.Result.BatchSize)
		}
	}
	// The cancelled member: cancelled if the cancel landed mid-solve, done if
	// the block beat it — never failed, and never blocking its companions.
	switch st := states[0]; st.State {
	case JobCancelled:
	case JobDone:
		if !st.Result.Converged {
			t.Errorf("cancelled member finished done but unconverged: %+v", st.Result)
		}
	default:
		t.Errorf("cancelled member: state=%s, want cancelled or done", st.State)
	}
	if got := s.Metrics().Batching.BlockSolves; got < 1 {
		t.Errorf("block_solves = %d, want ≥ 1", got)
	}
}

// TestValidationLimits: hostile resource parameters are rejected at admission
// with ErrLimitExceeded (HTTP 400), before any allocation happens.
func TestValidationLimits(t *testing.T) {
	s := New(Config{Workers: 1, MaxRequestIters: 1000, MaxRequestS: 8, MaxMatrixDim: 1000})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	over := []struct {
		name string
		req  SolveRequest
	}{
		{"max_iters", SolveRequest{Matrix: "poisson2d:8", MaxIters: 1001}},
		{"s", SolveRequest{Matrix: "poisson2d:8", Method: "spcg", S: 9}},
		{"matrix dim", SolveRequest{Matrix: "poisson2d:64"}}, // 4096 > 1000
		{"dim overflow", SolveRequest{Matrix: "poisson3d:2000000000"}},
		{"dim overflow 3d", SolveRequest{Matrix: "varcoeff3d:3000000:10"}},
	}
	for _, tc := range over {
		_, err := s.Submit(tc.req)
		if !errors.Is(err, ErrLimitExceeded) {
			t.Errorf("%s: err = %v, want ErrLimitExceeded", tc.name, err)
		}
	}
	// HTTP mapping: a limit violation is the client's fault.
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"matrix":"poisson2d:64"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("limit violation over HTTP: %d, want 400", resp.StatusCode)
	}
	// Exactly at the limits is fine.
	j, err := s.Submit(SolveRequest{Matrix: "poisson2d:8", Method: "spcg", S: 8, MaxIters: 1000})
	if err != nil {
		t.Fatalf("at-limit request rejected: %v", err)
	}
	if st := waitJob(t, j, 30*time.Second); st.State != JobDone {
		t.Errorf("at-limit solve: state=%s (%+v)", st.State, st.Result)
	}
}
