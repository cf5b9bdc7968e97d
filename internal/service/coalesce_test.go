package service

import (
	"context"
	"testing"
	"time"
)

func mustSubmit(t *testing.T, s *Server, req SolveRequest) *job {
	t.Helper()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit %+v: %v", req, err)
	}
	return j
}

// holdWorker occupies the one worker of a Workers: 1 server with a solve that
// cannot converge, so everything submitted afterwards stays queued until the
// returned release cancels it.
func holdWorker(t *testing.T, s *Server) (release func()) {
	t.Helper()
	blocker := mustSubmit(t, s, SolveRequest{
		Matrix: "poisson2d:96", Method: "pcg", Precond: "identity",
		Tol: 1e-300, MaxIters: 500000, NoBatch: true,
	})
	return func() {
		blocker.cancel()
		waitJob(t, blocker, 30*time.Second)
	}
}

// TestCoalesceIdleServerRunsSolo: a coalescable request that finds a free
// worker waits for nobody — it finishes as a batch of one although no second
// request ever arrives.
func TestCoalesceIdleServerRunsSolo(t *testing.T) {
	s := New(Config{Workers: 1, BatchMax: 8})
	defer shutdownServer(t, s)

	j := mustSubmit(t, s, SolveRequest{Matrix: "poisson2d:12", Method: "pcg"})
	st := waitJob(t, j, 30*time.Second)
	if st.State != JobDone || st.Result.Batched || st.Result.BatchSize != 1 {
		t.Fatalf("state=%s result=%+v, want done, solo", st.State, st.Result)
	}
	s.mu.Lock()
	open := len(s.open)
	s.mu.Unlock()
	if open != 0 {
		t.Errorf("%d items still open to companions after the only one ran", open)
	}
}

// TestCoalesceNeverSharesAcrossKeys: behind a busy worker, requests that
// differ in any part of the batch key, opt out (no_batch, trace) or are not
// plain PCG each run alone, and none of them joins the open item of the
// request they resemble.
func TestCoalesceNeverSharesAcrossKeys(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 32, BatchMax: 8})
	defer shutdownServer(t, s)

	const a = "poisson2d:12"
	reqs := []SolveRequest{
		{Matrix: a, Method: "pcg"},
		{Matrix: "poisson2d:14", Method: "pcg"},
		{Matrix: a, Method: "pcg", Precond: "ssor"},
		{Matrix: a, Method: "pcg", Tol: 1e-6},
		{Matrix: a, Method: "pcg", MaxIters: 500},
		{Matrix: a, Method: "pcg", NoBatch: true},
		{Matrix: a, Method: "pcg", Trace: true},
		{Matrix: a, Method: "pcg3"},
		{Matrix: a, Method: "spcg", S: 4},
	}
	release := holdWorker(t, s)
	var jobs []*job
	for _, req := range reqs {
		jobs = append(jobs, mustSubmit(t, s, req))
	}
	release()

	for i, j := range jobs {
		st := waitJob(t, j, 30*time.Second)
		if st.State != JobDone || st.Result.Batched || st.Result.BatchSize != 1 {
			t.Errorf("%+v: state=%s batched=%v size=%d, want done, solo", reqs[i], st.State, st.Result.Batched, st.Result.BatchSize)
		}
	}
	if m := s.Metrics(); m.Batching.BlockSolves != 0 {
		t.Errorf("block_solves = %d, want 0", m.Batching.BlockSolves)
	}
}

// TestCoalesceShutdownDrainsOpenItem: an item still open to companions when
// Shutdown begins is in the queue like any other and is drained.
func TestCoalesceShutdownDrainsOpenItem(t *testing.T) {
	s := New(Config{Workers: 1, BatchMax: 8})
	release := holdWorker(t, s)
	jobs := []*job{
		mustSubmit(t, s, SolveRequest{Matrix: "poisson2d:12", Method: "pcg"}),
		mustSubmit(t, s, SolveRequest{Matrix: "poisson2d:12", Method: "pcg"}),
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(ctx) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(SolveRequest{Matrix: "poisson2d:12", Method: "pcg"}); err != ErrShuttingDown {
		t.Errorf("submit while draining: err = %v, want ErrShuttingDown", err)
	}
	release()
	if err := <-shut; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i, j := range jobs {
		if st := j.status(); st.State != JobDone || st.Result.BatchSize != 2 {
			t.Errorf("job %d after drain: state=%s result=%+v, want done in a block of 2", i, st.State, st.Result)
		}
	}
}
