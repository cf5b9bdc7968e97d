package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"spcg/internal/pool"
	"spcg/internal/precond"
	"spcg/internal/sparse"
)

func postSolve(t *testing.T, url string, req SolveRequest) (int, JobStatus) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode /solve response (HTTP %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, st
}

func getMetrics(t *testing.T, url string) MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestBurstMixedMethods is the acceptance burst: 100 mixed-method requests
// against a live server complete with zero failures, and the setup cache
// shows a non-zero hit rate afterwards.
func TestBurstMixedMethods(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 128})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	methods := []string{"pcg", "pcg3", "spcg", "capcg", "capcg3"}
	matrices := []string{"poisson2d:16", "poisson2d:24"}
	const total = 100
	var wg sync.WaitGroup
	errs := make(chan error, total)
	sem := make(chan struct{}, 8)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			req := SolveRequest{
				Matrix:  matrices[i%len(matrices)],
				Method:  methods[i%len(methods)],
				Precond: "jacobi",
				S:       4,
			}
			code, st := postSolve(t, ts.URL, req)
			if code != http.StatusOK {
				errs <- fmt.Errorf("req %d (%s on %s): HTTP %d state=%s", i, req.Method, req.Matrix, code, st.State)
				return
			}
			if st.Result == nil || !st.Result.Converged {
				errs <- fmt.Errorf("req %d (%s on %s): not converged: %+v", i, req.Method, req.Matrix, st.Result)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	failures := 0
	for err := range errs {
		failures++
		t.Error(err)
	}
	if failures > 0 {
		t.Fatalf("%d/%d requests failed", failures, total)
	}

	m := getMetrics(t, ts.URL)
	if m.Completed != total {
		t.Errorf("completed = %d, want %d", m.Completed, total)
	}
	if m.Failed != 0 || m.Cancelled != 0 {
		t.Errorf("failed=%d cancelled=%d, want 0/0", m.Failed, m.Cancelled)
	}
	// 100 requests over 2 matrices × ≤2 precond-relevant specs must reuse setup.
	if m.SetupCache.HitRate <= 0 {
		t.Errorf("setup cache hit rate = %v, want > 0 (hits=%d misses=%d)",
			m.SetupCache.HitRate, m.SetupCache.Hits, m.SetupCache.Misses)
	}
}

// TestBatchingCoalesces: same-key PCG requests that queue behind a busy
// worker, whatever their spelling of the matrix, run as one multi-RHS block
// solve, visible both in per-job results
// and in the metrics.
func TestBatchingCoalesces(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 32, BatchMax: 8})
	defer shutdownServer(t, s)

	// Spellings of one generator spec share one key and so one block.
	spellings := []string{"poisson2d:20", "POISSON2D:20:20", " poisson2d:020 ", "poisson2d:20:20"}
	const k = 4
	release := holdWorker(t, s)
	jobs := make([]*job, k)
	for i := range jobs {
		jobs[i] = mustSubmit(t, s, SolveRequest{
			Matrix: spellings[i],
			Method: "pcg",
			RHS:    fmt.Sprintf("random:%d", i+1), // distinct RHS per column
		})
	}
	release()

	for i, j := range jobs {
		st := waitJob(t, j, 30*time.Second)
		r := st.Result
		if st.State != JobDone || r == nil || !r.Converged {
			t.Fatalf("req %d: state=%s result=%+v", i, st.State, r)
		}
		if !r.Batched || r.BatchSize != k {
			t.Errorf("req %d: batched=%v size=%d, want one block of %d", i, r.Batched, r.BatchSize, k)
		}
	}
	m := s.Metrics()
	if m.Batching.BlockSolves != 1 || m.Batching.BatchedRequests != k || m.Batching.MaxBatch != k {
		t.Errorf("batching = %+v, want 1 block solve of %d requests", m.Batching, k)
	}
}

// TestMetricsExposesKernelCounters: /metrics carries the kernel engine's
// process-wide counters. Tiny solves legitimately stay below the parallel
// thresholds, so the test drives one threshold-crossing SpMV directly and
// checks the snapshot reflects it.
func TestMetricsExposesKernelCounters(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 4})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := sparse.Poisson2D(200, 200) // nnz ≈ 2·10⁵, above the SpMV threshold
	x := make([]float64, a.Dim())
	y := make([]float64, a.Dim())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	a.MulVecPar(y, x)

	m := getMetrics(t, ts.URL)
	if m.Kernels.Workers < 1 {
		t.Errorf("kernels.workers = %d, want ≥ 1", m.Kernels.Workers)
	}
	if pool.DefaultWorkers() > 1 {
		if m.Kernels.SpMVDispatches == 0 {
			t.Error("kernels.spmv_dispatches = 0 after a pool-dispatched SpMV")
		}
		if m.Kernels.Dispatches == 0 {
			t.Error("kernels.dispatches = 0 after a pool-dispatched SpMV")
		}
	}
}

// TestBatchMaxFlushesEarly: a queued item that holds BatchMax requests takes
// no more companions — the next same-key request queues an item of its own.
func TestBatchMaxFlushesEarly(t *testing.T) {
	const batchMax = 2
	s := New(Config{Workers: 1, QueueDepth: 32, BatchMax: batchMax})
	defer shutdownServer(t, s)

	release := holdWorker(t, s)
	var jobs []*job
	for i := 0; i < batchMax+1; i++ {
		jobs = append(jobs, mustSubmit(t, s, SolveRequest{Matrix: "poisson2d:12", Method: "pcg"}))
	}
	release()

	for i, j := range jobs {
		st := waitJob(t, j, 30*time.Second)
		want := batchMax
		if i == batchMax {
			want = 1
		}
		if st.State != JobDone || st.Result.BatchSize != want || st.Result.Batched != (want > 1) {
			t.Errorf("job %d: state=%s batched=%v size=%d, want a block of %d", i, st.State, st.Result.Batched, st.Result.BatchSize, want)
		}
	}
}

// TestCancellation covers both cancellation paths deterministically with a
// single worker: a queued job cancelled before it starts, and a running job
// cancelled mid-solve via its context.
func TestCancellation(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer shutdownServer(t, s)

	// The blocker keeps the single worker busy until it is cancelled. A
	// one-iteration solve on its matrix builds the matrix and its set-up
	// first, so the blocker iterates from its start, even under -race.
	warm := blockerReq()
	warm.MaxIters = 1
	waitJob(t, mustSubmit(t, s, warm), 30*time.Second)
	blocker, err := s.Submit(blockerReq())
	if err != nil {
		t.Fatal(err)
	}
	// Target queues behind the blocker and is cancelled while still queued.
	target, err := s.Submit(SolveRequest{Matrix: "poisson2d:12", Method: "pcg", NoBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	target.cancel()
	time.Sleep(200 * time.Millisecond) // let the blocker iterate before cancelling it
	blocker.cancel()

	for _, j := range []*job{blocker, target} {
		select {
		case <-j.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("job %s did not terminate after cancel", j.id)
		}
	}
	if st := blocker.status(); st.State != JobCancelled {
		t.Errorf("blocker state = %s, want cancelled (result %+v)", st.State, st.Result)
	} else if st.Result == nil || st.Result.Iterations == 0 {
		t.Errorf("mid-solve cancel should report partial iterations: %+v", st.Result)
	}
	if st := target.status(); st.State != JobCancelled {
		t.Errorf("queued-job cancel: state = %s, want cancelled", st.State)
	}
}

// TestDeadline: a request-level timeout cancels the solve and the sync HTTP
// path maps it to 504 with partial stats attached.
func TestDeadline(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := blockerReq()
	req.TimeoutMS = 50
	code, st := postSolve(t, ts.URL, req)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("HTTP %d, want 504 (state=%s result=%+v)", code, st.State, st.Result)
	}
	if st.State != JobCancelled {
		t.Errorf("state = %s, want cancelled", st.State)
	}
}

// TestQueueFullRejects: admission control rejects the (QueueDepth+1)-th
// outstanding job instead of queueing unboundedly.
func TestQueueFullRejects(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer shutdownServer(t, s)

	blocker, err := s.Submit(blockerReq())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(SolveRequest{Matrix: "poisson2d:12", Method: "pcg", NoBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(SolveRequest{Matrix: "poisson2d:12", Method: "pcg", NoBatch: true}); err != ErrQueueFull {
		t.Errorf("third submit: err = %v, want ErrQueueFull", err)
	}
	if got := s.Metrics().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	blocker.cancel()
	<-blocker.done
	<-queued.done
	// Slots freed: admission accepts again.
	if _, err := s.Submit(SolveRequest{Matrix: "poisson2d:12", Method: "pcg", NoBatch: true}); err != nil {
		t.Errorf("submit after drain: %v", err)
	}
}

// TestShutdownDrains: Shutdown finishes queued work, then Submit refuses.
func TestShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 16})
	var jobs []*job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(SolveRequest{Matrix: "poisson2d:16", Method: "pcg"})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, j := range jobs {
		st := j.status()
		if st.State != JobDone {
			t.Errorf("job %s after drain: state %s (%+v)", st.ID, st.State, st.Result)
		}
	}
	if _, err := s.Submit(SolveRequest{Matrix: "poisson2d:12", Method: "pcg"}); err != ErrShuttingDown {
		t.Errorf("submit after shutdown: err = %v, want ErrShuttingDown", err)
	}
}

// TestValidation: malformed requests are rejected at submission.
func TestValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownServer(t, s)
	bad := []SolveRequest{
		{},                                       // missing matrix
		{Matrix: "poisson2d:8", Method: "gmres"}, // unknown method
		{Matrix: "poisson2d:8", Precond: "ilu"},  // unknown preconditioner
		{Matrix: "poisson2d:8", Basis: "fourier"}, // unknown basis
		{Matrix: "poisson2d:8", RHS: "zeros"},     // unknown rhs
		{Matrix: "poisson2d:8", Tol: -1},          // negative tol
		{Matrix: "nosuchmatrix"},                  // caught at solve time
	}
	for i, req := range bad[:6] {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("bad request %d (%+v) accepted", i, req)
		}
	}
	// Unknown matrix passes validation (resolution is lazy) but fails the job.
	j, err := s.Submit(bad[6])
	if err != nil {
		t.Fatalf("unknown-matrix submit should be admitted: %v", err)
	}
	<-j.done
	if st := j.status(); st.State != JobFailed {
		t.Errorf("unknown matrix: state %s, want failed", st.State)
	}
}

// TestJobEndpoints: async submission, polling and the matrices listing.
func TestJobEndpoints(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, st := postSolve(t, ts.URL, SolveRequest{Matrix: "poisson2d:16", Method: "spcg", S: 4, Async: true})
	if code != http.StatusAccepted || st.ID == "" {
		t.Fatalf("async submit: HTTP %d %+v", code, st)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cur.State == JobDone {
			if cur.Result == nil || !cur.Result.Converged {
				t.Fatalf("async job finished without convergence: %+v", cur.Result)
			}
			break
		}
		if cur.State == JobFailed || cur.State == JobCancelled {
			t.Fatalf("async job reached %s: %+v", cur.State, cur.Result)
		}
		if time.Now().After(deadline) {
			t.Fatalf("async job stuck in %s", cur.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/jobs/job-99999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/matrices")
	if err != nil {
		t.Fatal(err)
	}
	var names struct {
		Matrices []string `json:"matrices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(names.Matrices) == 0 {
		t.Error("GET /matrices returned no names")
	}
}

// TestParsePrecondCanonical: spec aliases share one canonical cache key.
func TestParsePrecondCanonical(t *testing.T) {
	cases := [][2]string{
		{"", "jacobi"},
		{"jacobi", "jacobi"},
		{"none", "identity"},
		{"ssor", "ssor:1"},
		{"ssor:1.0", "ssor:1"},
		{"blockjacobi", "blockjacobi:16"},
		{"chebyshev:3", "chebyshev:3"},
	}
	for _, c := range cases {
		spec, err := precond.Parse(c[0])
		if err != nil {
			t.Errorf("precond.Parse(%q): %v", c[0], err)
			continue
		}
		if spec.Canonical() != c[1] {
			t.Errorf("precond.Parse(%q).Canonical() = %q, want %q", c[0], spec.Canonical(), c[1])
		}
	}
}

// TestRegistryGenerators: parametric specs build, bad specs error, and the
// same name returns the identical matrix instance (the cache contract).
func TestRegistryGenerators(t *testing.T) {
	r := newRegistry(1)
	a1, fp1, err := r.get("poisson2d:8")
	if err != nil {
		t.Fatal(err)
	}
	a2, fp2, err := r.get("poisson2d:8")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 || fp1 != fp2 {
		t.Error("same name must return the same built matrix")
	}
	if a1.Dim() != 64 {
		t.Errorf("poisson2d:8 has n=%d, want 64", a1.Dim())
	}
	for _, bad := range []string{"", "poisson2d", "poisson2d:0", "poisson2d:x", "mystery:4", "aniso2d:8"} {
		if _, _, err := r.get(bad); err == nil {
			t.Errorf("registry accepted bad spec %q", bad)
		}
	}
	if len(r.names()) == 0 {
		t.Error("registry has no suite problems")
	}
}

// TestRHSSeedParsesStrictly: the random right-hand side's seed is the whole
// argument after the colon, parsed as a decimal integer. Trailing garbage or
// inner spaces are a bad request, not a silently truncated seed; a good seed
// draws the same vector as before.
func TestRHSSeedParsesStrictly(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		rhs  string
		want int
	}{
		{"random:5", http.StatusOK},
		{"random:5abc", http.StatusBadRequest},
		{"random: 7", http.StatusBadRequest},
		{"random:7.0", http.StatusBadRequest},
		{"random:0x10", http.StatusBadRequest},
		{"random:99999999999999999999", http.StatusBadRequest},
	} {
		code, st := postSolve(t, ts.URL, SolveRequest{Matrix: "poisson2d:8", Method: "pcg", RHS: tc.rhs})
		if code != tc.want {
			t.Errorf("rhs %q: HTTP %d, want %d (%+v)", tc.rhs, code, tc.want, st)
		}
	}

	b, err := buildRHS("random:5", 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i, v := range b {
		if want := 2*rng.Float64() - 1; math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("random:5 entry %d = %v, want %v", i, v, want)
		}
	}
}
