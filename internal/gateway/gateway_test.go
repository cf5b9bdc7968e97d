package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spcg/internal/suite"
)

// stub is a scriptable fake spcgd backend. The gateway routes by the
// matrix key alone, so a test predicts the ring walk from the name.
type stub struct {
	srv *httptest.Server

	mu         sync.Mutex
	healthCode int                                          // 0 = 200
	healthBody string                                       // "" = {"status":"ok"}
	solveFn    func(w http.ResponseWriter, r *http.Request) // nil = default done response
	solveIDs   []string                                     // request_ids seen at /solve
	solves     int
	paths      []string // every request's path, in arrival order
}

func newStub() *stub {
	s := &stub{}
	s.srv = httptest.NewServer(http.HandlerFunc(s.handle))
	return s
}

func (s *stub) handle(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.paths = append(s.paths, r.URL.Path)
	s.mu.Unlock()
	switch {
	case r.URL.Path == "/healthz":
		s.mu.Lock()
		code, body := s.healthCode, s.healthBody
		s.mu.Unlock()
		if code == 0 {
			code = http.StatusOK
		}
		if body == "" {
			body = `{"status":"ok"}`
		}
		w.WriteHeader(code)
		fmt.Fprint(w, body)
	case r.URL.Path == "/solve":
		var req struct {
			RequestID string `json:"request_id"`
		}
		_ = json.NewDecoder(r.Body).Decode(&req)
		s.mu.Lock()
		s.solves++
		s.solveIDs = append(s.solveIDs, req.RequestID)
		fn := s.solveFn
		s.mu.Unlock()
		if fn != nil {
			fn(w, r)
			return
		}
		fmt.Fprint(w, `{"id":"job-1","state":"done","result":{"converged":true}}`)
	default:
		http.NotFound(w, r)
	}
}

func (s *stub) setSolve(fn func(w http.ResponseWriter, r *http.Request)) {
	s.mu.Lock()
	s.solveFn = fn
	s.mu.Unlock()
}

func (s *stub) setHealth(code int, body string) {
	s.mu.Lock()
	s.healthCode, s.healthBody = code, body
	s.mu.Unlock()
}

func (s *stub) solveCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.solves
}

func (s *stub) ids() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.solveIDs...)
}

// newTestGateway builds a gateway over the stubs with a dormant prober
// (tests drive membership via the initial probe and the data path).
func newTestGateway(t *testing.T, stubs ...*stub) *Gateway {
	t.Helper()
	urls := make([]string, len(stubs))
	for i, s := range stubs {
		urls[i] = s.srv.URL
	}
	g, err := New(Config{
		Backends:      urls,
		probeInterval: time.Hour,
		retryBackoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(g.Close)
	return g
}

// orderStubs returns the stubs in the gateway's replica order for a matrix.
func orderStubs(t *testing.T, g *Gateway, matrix string, stubs ...*stub) []*stub {
	t.Helper()
	key, err := suite.Key(matrix)
	if err != nil {
		t.Fatal(err)
	}
	walk := g.ring.lookup(nameHash(key), len(stubs))
	if len(walk) != len(stubs) {
		t.Fatalf("ring walk %v, want %d members", walk, len(stubs))
	}
	byName := map[string]*stub{}
	for _, s := range stubs {
		byName[strings.TrimPrefix(s.srv.URL, "http://")] = s
	}
	out := make([]*stub, len(walk))
	for i, name := range walk {
		out[i] = byName[name]
		if out[i] == nil {
			t.Fatalf("ring member %s is not a stub", name)
		}
	}
	return out
}

func postSolveGW(t *testing.T, g *Gateway, body string) *httptest.ResponseRecorder {
	t.Helper()
	return serveGW(g, http.MethodPost, "/solve", body)
}

func serveGW(g *Gateway, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	return rec
}

// TestFailoverOnBackendKill kills the primary mid-solve and checks the
// request fails over to the replica, exactly one solve completes, both
// attempts carried the same gateway-stamped request_id (so a backend-side
// dedup would also have collapsed them), and the dead backend leaves the
// ring immediately.
func TestFailoverOnBackendKill(t *testing.T) {
	a, b := newStub(), newStub()
	defer a.srv.Close()
	defer b.srv.Close()
	g := newTestGateway(t, a, b)
	// The replica walk is a function of the matrix key alone, so it is
	// predictable before any request is sent.
	order := orderStubs(t, g, "poisson1d:11", a, b)
	primary, replica := order[0], order[1]

	primary.setSolve(func(w http.ResponseWriter, _ *http.Request) {
		// Simulate a crash mid-solve: kill the TCP connection without a
		// response, which the gateway sees as a transport error (EOF).
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close()
	})

	rec := postSolveGW(t, g, `{"matrix":"poisson1d:11","method":"pcg"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("solve after kill: HTTP %d, body %s", rec.Code, rec.Body.String())
	}
	var st struct {
		State  string `json:"state"`
		Result *struct {
			Converged bool `json:"converged"`
		} `json:"result"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.Result == nil || !st.Result.Converged {
		t.Fatalf("bad failover response: %s", rec.Body.String())
	}
	if got := replica.solveCount(); got != 1 {
		t.Fatalf("replica ran %d solves, want exactly 1 (no duplicate)", got)
	}
	pids, rids := primary.ids(), replica.ids()
	if len(pids) != 1 || len(rids) != 1 || pids[0] == "" || pids[0] != rids[0] {
		t.Fatalf("request_id not preserved across failover: primary %v, replica %v", pids, rids)
	}
	// The dead backend must be off the ring without waiting for the prober.
	var deadStub *backend
	for _, bk := range g.backends {
		if bk.url == primary.srv.URL {
			deadStub = bk
		}
	}
	if deadStub == nil || deadStub.getState() != Dead {
		t.Fatalf("primary not marked dead after transport failure")
	}
	if n := g.ring.members(); n != 1 {
		t.Fatalf("ring has %d members after kill, want 1", n)
	}
	snap := g.snapshot()
	if snap.Failovers != 1 || snap.AffinityMiss != 1 {
		t.Fatalf("failovers=%d misses=%d, want 1/1", snap.Failovers, snap.AffinityMiss)
	}
}

// TestAllBackendsDraining checks that a pool that is entirely draining
// yields 503 + Retry-After on the solve path and on the gateway's own
// /healthz — backpressure, not a hang or a 5xx storm.
func TestAllBackendsDraining(t *testing.T) {
	a, b := newStub(), newStub()
	defer a.srv.Close()
	defer b.srv.Close()
	a.setHealth(http.StatusServiceUnavailable, `{"status":"draining"}`)
	b.setHealth(http.StatusServiceUnavailable, `{"status":"draining"}`)
	g := newTestGateway(t, a, b)

	if n := g.ring.members(); n != 0 {
		t.Fatalf("ring has %d members with all backends draining, want 0", n)
	}
	rec := postSolveGW(t, g, `{"matrix":"poisson1d:11","method":"pcg"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("solve with drained pool: HTTP %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatalf("503 without Retry-After")
	}
	hreq := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	hrec := httptest.NewRecorder()
	g.Handler().ServeHTTP(hrec, hreq)
	if hrec.Code != http.StatusServiceUnavailable || hrec.Header().Get("Retry-After") == "" {
		t.Fatalf("gateway /healthz = HTTP %d (Retry-After %q), want 503 with Retry-After", hrec.Code, hrec.Header().Get("Retry-After"))
	}
	if g.snapshot().Unroutable == 0 {
		t.Fatalf("unroutable counter did not move")
	}
}

// TestSpillOn429 checks saturation handling: one 429 spills to the next
// replica; when the spill budget is exhausted the 429 — including the
// backend's own Retry-After — propagates to the client.
func TestSpillOn429(t *testing.T) {
	a, b := newStub(), newStub()
	defer a.srv.Close()
	defer b.srv.Close()
	g := newTestGateway(t, a, b)
	order := orderStubs(t, g, "poisson1d:12", a, b)
	primary, replica := order[0], order[1]

	shed := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"queue full"}`)
	}
	primary.setSolve(shed)

	rec := postSolveGW(t, g, `{"matrix":"poisson1d:12","method":"pcg"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("spilled solve: HTTP %d, body %s", rec.Code, rec.Body.String())
	}
	snap := g.snapshot()
	if snap.Spills != 1 || snap.AffinityMiss != 1 || snap.Shed != 0 {
		t.Fatalf("spills=%d misses=%d shed=%d, want 1/1/0", snap.Spills, snap.AffinityMiss, snap.Shed)
	}
	if replica.solveCount() != 1 {
		t.Fatalf("replica saw %d solves, want 1", replica.solveCount())
	}

	// Saturate the whole walk: the client gets the 429 back, with the
	// backend's Retry-After, and the shed counter moves.
	replica.setSolve(shed)
	rec = postSolveGW(t, g, `{"matrix":"poisson1d:12","method":"pcg"}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("fully saturated solve: HTTP %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "7" {
		t.Fatalf("propagated Retry-After = %q, want %q", ra, "7")
	}
	if snap = g.snapshot(); snap.Shed != 1 {
		t.Fatalf("shed=%d, want 1", snap.Shed)
	}
}

// TestAffinityConsistency checks repeat requests for the same matrices keep
// landing on the same backend (100% affinity on an unsaturated pool) and
// that different matrices spread across the pool.
func TestAffinityConsistency(t *testing.T) {
	stubs := []*stub{newStub(), newStub(), newStub(), newStub()}
	urls := make([]string, len(stubs))
	for i, s := range stubs {
		defer s.srv.Close()
		urls[i] = s.srv.URL
	}
	g := newTestGateway(t, stubs...)

	matrices := []string{"poisson2d:16", "poisson2d:24", "hubgraph:4096", "aniso2d:30:0.01", "varcoeff2d:40:100"}
	const rounds = 8
	for r := 0; r < rounds; r++ {
		for _, m := range matrices {
			rec := postSolveGW(t, g, fmt.Sprintf(`{"matrix":%q,"method":"pcg"}`, m))
			if rec.Code != http.StatusOK {
				t.Fatalf("solve %s: HTTP %d", m, rec.Code)
			}
		}
	}
	snap := g.snapshot()
	want := int64(rounds * len(matrices))
	if snap.AffinityHits != want || snap.AffinityMiss != 0 {
		t.Fatalf("affinity hits=%d misses=%d, want %d/0", snap.AffinityHits, snap.AffinityMiss, want)
	}
	if snap.AffinityRate != 1.0 {
		t.Fatalf("affinity rate %.3f, want 1.0", snap.AffinityRate)
	}
	// Each stub's solve count must equal rounds × (matrices routed to it):
	// i.e. every matrix is pinned to exactly one backend.
	spread := 0
	for _, s := range stubs {
		n := s.solveCount()
		if n%rounds != 0 {
			t.Fatalf("stub saw %d solves, not a multiple of %d rounds — a matrix moved between backends", n, rounds)
		}
		if n > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("all matrices landed on %d backend(s), want spread across ≥2 of 4", spread)
	}
}

// TestRetryableStatusFailover checks a 503 from a draining primary moves the
// request to the replica, while terminal solver statuses (500) are answers
// and must NOT fail over.
func TestRetryableStatusFailover(t *testing.T) {
	a, b := newStub(), newStub()
	defer a.srv.Close()
	defer b.srv.Close()
	g := newTestGateway(t, a, b)
	order := orderStubs(t, g, "poisson1d:13", a, b)
	primary, replica := order[0], order[1]

	primary.setSolve(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"shutting down"}`)
	})
	rec := postSolveGW(t, g, `{"matrix":"poisson1d:13","method":"pcg"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("failover from 503: HTTP %d", rec.Code)
	}
	if replica.solveCount() != 1 {
		t.Fatalf("replica saw %d solves, want 1", replica.solveCount())
	}

	// A 500 is a terminal solver outcome (job failed); re-running it
	// elsewhere would waste a backend on a deterministic failure.
	primary.setSolve(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"id":"job-9","state":"failed","result":{"error":"breakdown"}}`)
	})
	before := replica.solveCount()
	rec = postSolveGW(t, g, `{"matrix":"poisson1d:13","method":"pcg"}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("terminal 500: HTTP %d, want 500 forwarded", rec.Code)
	}
	if replica.solveCount() != before {
		t.Fatalf("500 was retried on the replica — terminal outcomes must not fail over")
	}
}

// TestProbeRecovery checks a dead backend rejoins the ring on the first
// healthy probe and gets exactly its old arc back.
func TestProbeRecovery(t *testing.T) {
	a, b := newStub(), newStub()
	defer a.srv.Close()
	defer b.srv.Close()
	g := newTestGateway(t, a, b)
	sharesBefore := g.ring.shares()

	order := orderStubs(t, g, "poisson1d:14", a, b)
	primary := order[0]
	primary.setSolve(func(w http.ResponseWriter, _ *http.Request) {
		conn, _, _ := w.(http.Hijacker).Hijack()
		conn.Close()
	})
	if rec := postSolveGW(t, g, `{"matrix":"poisson1d:14","method":"pcg"}`); rec.Code != http.StatusOK {
		t.Fatalf("failover solve: HTTP %d", rec.Code)
	}
	if g.ring.members() != 1 {
		t.Fatalf("ring members = %d after kill, want 1", g.ring.members())
	}

	// The backend "restarts": probes see it healthy, it rejoins the ring.
	primary.setSolve(nil)
	g.probeOnce()
	if g.ring.members() != 2 {
		t.Fatalf("ring members = %d after recovery probe, want 2", g.ring.members())
	}
	sharesAfter := g.ring.shares()
	for name, s := range sharesBefore {
		if diff := sharesAfter[name] - s; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("share[%s] changed %.6f→%.6f across dead/recover cycle", name, s, sharesAfter[name])
		}
	}
	snap := g.snapshot()
	if snap.BackendsAlive != 2 || snap.BackendsDead != 0 {
		t.Fatalf("alive=%d dead=%d after recovery, want 2/0", snap.BackendsAlive, snap.BackendsDead)
	}
}
