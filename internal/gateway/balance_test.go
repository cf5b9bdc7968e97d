package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spcg/internal/service"
)

// TestLoadRoutingFirstHop drives the first-hop rule with stub backends whose
// solves block until released, so each backend's in-flight count is exactly
// what the test has sent it: an idle owner serves; a busy owner with an idle
// successor sends the solve to the successor (an affinity miss and a
// load-routed solve); with both busy the tie goes to the owner; async solves
// and POST /tune go to the owner however busy it is.
func TestLoadRoutingFirstHop(t *testing.T) {
	a, b := newStub(), newStub()
	defer a.srv.Close()
	defer b.srv.Close()
	g := newTestGateway(t, a, b)
	order := orderStubs(t, g, "poisson1d:10", a, b)
	owner, succ := order[0], order[1]

	if rec := postSolveGW(t, g, `{"matrix":"poisson1d:10","method":"pcg"}`); rec.Code != http.StatusOK || owner.solveCount() != 1 {
		t.Fatalf("idle owner: HTTP %d, owner saw %d solves; want it served there", rec.Code, owner.solveCount())
	}

	started := make(chan *stub, 8)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // before the stubs close, which waits for their handlers
	block := func(s *stub) func(http.ResponseWriter, *http.Request) {
		return func(w http.ResponseWriter, _ *http.Request) {
			started <- s
			<-release
			fmt.Fprint(w, `{"id":"job-1","state":"done","result":{"converged":true}}`)
		}
	}
	owner.setSolve(block(owner))
	succ.setSolve(block(succ))

	var wg sync.WaitGroup
	codes := make(chan int, 8)
	send := func(body string, want *stub, what string) {
		t.Helper()
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes <- postSolveGW(t, g, body).Code
		}()
		if got := <-started; got != want {
			t.Fatalf("%s: sent to the %s, want the %s", what, role(got, owner), role(want, owner))
		}
	}
	send(`{"matrix":"poisson1d:10","method":"pcg"}`, owner, "owner idle")
	send(`{"matrix":"poisson1d:10","method":"pcg"}`, succ, "owner busy, successor idle")
	if snap := g.snapshot(); snap.LoadRouted != 1 {
		t.Fatalf("load_routed_total %d after one solve went to the successor, want 1", snap.LoadRouted)
	}
	send(`{"matrix":"poisson1d:10","method":"pcg"}`, owner, "both busy")
	send(`{"matrix":"poisson1d:10","method":"pcg","async":true}`, owner, "async, owner busiest")

	// POST /tune is not a stub route: its 404 is an answer, served by the
	// owner if it counts as an affinity hit.
	before := g.snapshot()
	req := httptest.NewRequest(http.MethodPost, "/tune", strings.NewReader(`{"matrix":"poisson1d:10"}`))
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	if after := g.snapshot(); rec.Code != http.StatusNotFound || after.AffinityHits != before.AffinityHits+1 || after.LoadRouted != before.LoadRouted {
		t.Fatalf("POST /tune with the owner busiest: HTTP %d, hits %d → %d, load-routed %d → %d; want the owner",
			rec.Code, before.AffinityHits, after.AffinityHits, before.LoadRouted, after.LoadRouted)
	}

	unblock()
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("released solve: HTTP %d", code)
		}
	}
	snap := g.snapshot()
	if snap.AffinityHits != 5 || snap.AffinityMiss != 1 || snap.LoadRouted != 1 || snap.Spills != 0 {
		t.Fatalf("hits=%d misses=%d load_routed=%d spills=%d, want 5/1/1/0", snap.AffinityHits, snap.AffinityMiss, snap.LoadRouted, snap.Spills)
	}
	if owner.solveCount() != 4 || succ.solveCount() != 1 {
		t.Fatalf("owner saw %d solves and successor %d, want 4 and 1", owner.solveCount(), succ.solveCount())
	}
}

func role(s, owner *stub) string {
	if s == owner {
		return "owner"
	}
	return "successor"
}

// TestRetryFollowsFirstAttempt: a client re-sends its request_id while the
// first attempt is still running on the owner. Balanced on load alone, the
// retry would go to the idle successor and run the solve a second time; it
// follows its first attempt instead, so over two real backends there is one
// job, on one backend, and the retry is that backend's dedup hit.
func TestRetryFollowsFirstAttempt(t *testing.T) {
	var svcs []*service.Server
	var urls []string
	for i := 0; i < 2; i++ {
		s := service.New(service.Config{Workers: 1, BatchMax: 1})
		svcs = append(svcs, s)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, s := range svcs {
			_ = s.Shutdown(ctx)
		}
	})
	g, err := New(Config{Backends: urls, ProbeInterval: time.Hour, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(g.Close)

	// A solve that cannot converge runs until its deadline: the solver's
	// stagnation window would end it only after 4.5 s.
	body := `{"matrix":"poisson2d:512","method":"pcg","precond":"identity","tol":1e-300,"max_iters":500000,"timeout_ms":1500,"request_id":"client-7"}`
	type reply struct {
		code int
		id   string
	}
	replies := make(chan reply, 2)
	send := func() {
		rec := postSolveGW(t, g, body)
		var doc struct {
			ID string `json:"id"`
		}
		_ = json.Unmarshal(rec.Body.Bytes(), &doc)
		replies <- reply{rec.Code, doc.ID}
	}
	go send()
	for deadline := time.Now().Add(10 * time.Second); svcs[0].Metrics().InFlight+svcs[1].Metrics().InFlight == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the first attempt never started")
		}
		time.Sleep(time.Millisecond)
	}
	go send()
	first, second := <-replies, <-replies
	if first.code != http.StatusGatewayTimeout || second.code != http.StatusGatewayTimeout || first.id == "" || first.id != second.id {
		t.Fatalf("replies %+v and %+v: want the one job's deadline answer twice", first, second)
	}
	jobs, hits := 0, 0
	for _, s := range svcs {
		n := s.Metrics().RequestsTotal
		jobs += int(n)
		var prom bytes.Buffer
		s.Registry().WritePrometheus(&prom)
		if n == 1 && strings.Contains(prom.String(), "\nspcgd_dedup_hits_total 1\n") {
			hits++
		}
	}
	if jobs != 1 || hits != 1 {
		t.Fatalf("%d jobs across the backends, %d backends with the job and one dedup hit; want 1 and 1", jobs, hits)
	}
	if snap := g.snapshot(); snap.LoadRouted != 0 {
		t.Fatalf("load_routed_total %d: the retry was balanced instead of following its first attempt", snap.LoadRouted)
	}
}
