package service

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// breakdownReq deterministically breaks down: the monomial basis at s=8 on
// the strongly anisotropic operator produces a singular Gram system within a
// couple of outer iterations (see the paper's ill-conditioning discussion),
// so the solve ends done-but-not-converged, with the breakdown in its result.
func breakdownReq() SolveRequest {
	return SolveRequest{
		Matrix: "aniso2d:30:0.0001", Method: "spcg", S: 8,
		Basis: "monomial", Precond: "identity",
	}
}

// stagnatorReq stalls for real: PCG without a preconditioner at a tolerance
// no residual reaches. On poisson2d:128 the true residual reaches its floor
// (2.4e-12 relative) by iteration 294 and never improves on it again. At a
// tol below the unit roundoff the criterion forms b − A·x once the recursive
// residual is within ten roundoffs, so the stagnation window sees that floor
// and ends the solve at iteration 741: 0.2 s at GOMAXPROCS 2, 2 s under the
// race detector.
func stagnatorReq(deadline time.Duration) SolveRequest {
	return SolveRequest{
		Matrix: "poisson2d:128", Method: "pcg", Precond: "identity",
		Tol: 1e-300, MaxIters: 500000, TimeoutMS: int(deadline / time.Millisecond),
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
		Workers: 2,
		Chaos:   &ChaosConfig{Seed: 7, PanicProb: 1}, // every solve panics
	})
	defer shutdownServer(t, s)

	for i := 0; i < 3; i++ {
		j, err := s.Submit(SolveRequest{Matrix: "poisson2d:16", Method: "pcg"})
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
	// The same workers that absorbed the panics still solve correctly once
	// injection stops. Every job above has finished, so no worker is
	// reading the probability while it changes.
	s.chaos.cfg.PanicProb = 0
	for i := 0; i < 2; i++ {
		j := mustSubmit(t, s, SolveRequest{Matrix: "poisson2d:16", Method: "pcg"})
		if st := waitJob(t, j, 30*time.Second); st.State != JobDone || !st.Result.Converged {
			t.Fatalf("post-panic solve %d: state=%s result=%+v", i, st.State, st.Result)
		}
	}
	m := s.Metrics()
	if m.Resilience.SolverPanics != 3 {
		t.Errorf("solver_panics_total = %d, want 3", m.Resilience.SolverPanics)
	}
}

// TestStagnationStopsStalledSolve: a solve grinding at the residual floor is
// stopped by the solver's stagnation window well before its wall-clock
// deadline and reported as stagnated, not cancelled.
func TestStagnationStopsStalledSolve(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownServer(t, s)

	const deadline = 20 * time.Second
	j, err := s.Submit(stagnatorReq(deadline))
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j, deadline)
	if st.State != JobStagnated {
		t.Fatalf("state = %s, want stagnated (%+v)", st.State, st.Result)
	}
	if !strings.Contains(st.Result.Error, "stagnated") || !strings.Contains(st.Result.Error, "no residual progress") {
		t.Errorf("stagnation error %q lacks the solver's diagnosis", st.Result.Error)
	}
	if st.Result.Iterations == 0 {
		t.Errorf("stagnated solve should report partial stats: %+v", st.Result)
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

// TestFailedSolveIsReportedNotRerouted: one request's outcome does not
// depend on the outcomes of earlier ones. Three monomial sPCG(s=8) solves on
// poisson2d:64 capped at 16 iterations end unconverged; the Chebyshev request
// on the same matrix, method and s after them still runs sPCG and ends with
// the state, iterations and x of the same request on a fresh server, and the
// failures leave the server healthy.
func TestFailedSolveIsReportedNotRerouted(t *testing.T) {
	capped := SolveRequest{Matrix: "poisson2d:64", Method: "spcg", S: 8, Basis: "monomial", MaxIters: 16}
	next := SolveRequest{Matrix: "poisson2d:64", Method: "spcg", S: 8, Basis: "chebyshev"}

	s := New(Config{Workers: 1})
	defer shutdownServer(t, s)
	for i := 0; i < 3; i++ {
		st := waitJob(t, mustSubmit(t, s, capped), 30*time.Second)
		if st.State != JobDone || st.Result.Converged || st.Result.Method != "spcg" {
			t.Fatalf("capped run %d: state=%s method=%q result=%+v, want an unconverged spcg run", i, st.State, st.Result.Method, st.Result)
		}
	}
	got := waitJob(t, mustSubmit(t, s, next), 60*time.Second)
	if h := s.health(); h != "healthy" {
		t.Errorf("health after unconverged solves = %s, want healthy", h)
	}

	fresh := New(Config{Workers: 1})
	defer shutdownServer(t, fresh)
	want := waitJob(t, mustSubmit(t, fresh, next), 60*time.Second)

	if got.Result.Method != "spcg" {
		t.Errorf("request after three failures ran %q, want spcg", got.Result.Method)
	}
	// One configuration on one matrix gives one set of bits.
	if got.State != want.State || got.Result.Iterations != want.Result.Iterations ||
		math.Float64bits(got.Result.XNorm) != math.Float64bits(want.Result.XNorm) {
		t.Errorf("after three failures: %s in %d iterations, x_norm %v; on a fresh server: %s in %d, x_norm %v",
			got.State, got.Result.Iterations, got.Result.XNorm, want.State, want.Result.Iterations, want.Result.XNorm)
	}
}

// getHealthz reads /healthz: its code, its Retry-After and its status.
func getHealthz(t *testing.T, url string) (code int, retryAfter, status string) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hs HealthStatus
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		t.Fatalf("/healthz body: %v", err)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), hs.Status
}

// TestLoadSheddingAndHealthz: saturation returns 429 + Retry-After on each
// shed submission and counts it in spcgd_rejected_total, while /healthz
// stays 200 healthy (the server still admits work as the queue drains);
// shutdown flips it to draining with a 503.
func TestLoadSheddingAndHealthz(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _, status := getHealthz(t, ts.URL); code != http.StatusOK || status != "healthy" {
		t.Fatalf("/healthz idle: HTTP %d %q, want 200 healthy", code, status)
	}

	blocker, err := s.Submit(blockerReq())
	if err != nil {
		t.Fatal(err)
	}
	// The queue (depth 1) is full: the next submission is shed with a hint.
	if code, _ := postSolve(t, ts.URL, SolveRequest{Matrix: "poisson2d:12", Method: "pcg"}); code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: HTTP %d, want 429", code)
	}
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"matrix":"poisson2d:12"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Errorf("shed response: HTTP %d Retry-After=%q, want 429 with a hint", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if code, _, status := getHealthz(t, ts.URL); code != http.StatusOK || status != "healthy" {
		t.Errorf("/healthz while shedding: HTTP %d %q, want 200 healthy", code, status)
	}
	if m := s.Metrics(); m.Rejected != 2 || m.Resilience.Health != "healthy" {
		t.Errorf("after two shed submissions: rejected_total=%d health=%q, want 2 healthy", m.Rejected, m.Resilience.Health)
	}
	var text strings.Builder
	s.Registry().WritePrometheus(&text)
	if !strings.Contains(text.String(), "\nspcgd_rejected_total 2\n") {
		t.Errorf("exposition lacks spcgd_rejected_total 2:\n%s", text.String())
	}

	blocker.cancel()
	<-blocker.done
	shutdownServer(t, s)

	if code, retryAfter, status := getHealthz(t, ts.URL); code != http.StatusServiceUnavailable || retryAfter == "" || status != "draining" {
		t.Errorf("/healthz draining: HTTP %d Retry-After=%q %q, want 503 draining with a hint", code, retryAfter, status)
	}
	if h := s.Metrics().Resilience.Health; h != "draining" {
		t.Errorf("health after shutdown = %q, want draining", h)
	}
}

// TestValidationLimits: hostile resource parameters are rejected at admission
// with ErrLimitExceeded (HTTP 400), before any allocation happens. A
// timeout_ms past the bound used to overflow the millisecond → Duration
// product: 18446744073710 wrapped to a 0.45 ms deadline, 9300000000000 to a
// negative one, which set no deadline at all.
func TestValidationLimits(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	over := []struct {
		name string
		req  SolveRequest
	}{
		{"max_iters", SolveRequest{Matrix: "poisson2d:8", MaxIters: maxRequestIters + 1}},
		{"s", SolveRequest{Matrix: "poisson2d:8", Method: "spcg", S: maxRequestS + 1}},
		{"matrix dim", SolveRequest{Matrix: "poisson2d:2049"}}, // 2049² > 1<<22
		{"dim overflow", SolveRequest{Matrix: "poisson3d:2000000000"}},
		{"dim overflow 3d", SolveRequest{Matrix: "varcoeff3d:3000000:10"}},
		{"timeout_ms", SolveRequest{Matrix: "poisson2d:8", TimeoutMS: maxRequestTimeoutMS + 1}},
		{"timeout_ms wraps small", SolveRequest{Matrix: "poisson2d:8", TimeoutMS: 18446744073710}},
		{"timeout_ms wraps negative", SolveRequest{Matrix: "poisson2d:8", TimeoutMS: 9300000000000}},
	}
	for _, tc := range over {
		_, err := s.Submit(tc.req)
		if !errors.Is(err, ErrLimitExceeded) {
			t.Errorf("%s: err = %v, want ErrLimitExceeded", tc.name, err)
		}
	}
	// HTTP mapping: a limit violation is the client's fault.
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"matrix":"poisson2d:2049"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("limit violation over HTTP: %d, want 400", resp.StatusCode)
	}
	// Within the limits is fine, and a timeout at its bound is the deadline
	// it asks for.
	j, err := s.Submit(SolveRequest{Matrix: "poisson2d:8", Method: "spcg", S: 8, MaxIters: 1000, TimeoutMS: maxRequestTimeoutMS})
	if err != nil {
		t.Fatalf("at-limit request rejected: %v", err)
	}
	if dl, ok := j.ctx.Deadline(); !ok || time.Until(dl) < 23*time.Hour {
		t.Errorf("timeout_ms %d: deadline %v (set: %v), want a day away", maxRequestTimeoutMS, dl, ok)
	}
	if st := waitJob(t, j, 30*time.Second); st.State != JobDone {
		t.Errorf("at-limit solve: state=%s (%+v)", st.State, st.Result)
	}
}
