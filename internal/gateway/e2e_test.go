package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"spcg/internal/service"
)

// TestEndToEndRealBackends runs the gateway over two real in-process spcgd
// servers: repeat-matrix traffic keeps 100% affinity, solves converge, the
// backends keep one built matrix per distinct matrix solved, and
// resubmitting a request_id through the gateway returns the same backend job
// instead of running a second solve.
func TestEndToEndRealBackends(t *testing.T) {
	svcs, g := realStack(t)

	matrices := []string{"poisson2d:12", "poisson2d:16", "poisson1d:64"}
	type jobDoc struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Result *struct {
			Converged bool `json:"converged"`
		} `json:"result"`
	}
	solve := func(body string) (int, jobDoc) {
		rec := postSolveGW(t, g, body)
		var doc jobDoc
		_ = json.Unmarshal(rec.Body.Bytes(), &doc)
		return rec.Code, doc
	}
	for round := 0; round < 3; round++ {
		for _, m := range matrices {
			code, doc := solve(`{"matrix":"` + m + `","method":"pcg","precond":"jacobi"}`)
			if code != http.StatusOK || doc.Result == nil || !doc.Result.Converged {
				t.Fatalf("solve %s: HTTP %d, doc %+v", m, code, doc)
			}
		}
	}
	snap := g.snapshot()
	if snap.AffinityRate != 1.0 {
		t.Fatalf("affinity rate %.3f with real backends, want 1.0 (hits=%d misses=%d)",
			snap.AffinityRate, snap.AffinityHits, snap.AffinityMiss)
	}

	// Each backend keeps only the matrices it solves on: the gateway keys a
	// name without asking any backend, so after K more distinct specs are
	// solved once each, the backends hold one built matrix per distinct
	// matrix between them.
	const k = 8
	for i := 0; i < k; i++ {
		m := fmt.Sprintf("poisson1d:%d", 41+8*i)
		if code, doc := solve(`{"matrix":"` + m + `","method":"pcg"}`); code != http.StatusOK || doc.Result == nil || !doc.Result.Converged {
			t.Fatalf("solve %s: HTTP %d, doc %+v", m, code, doc)
		}
	}
	resident := 0
	for _, s := range svcs {
		resident += s.Metrics().Registry.Matrices
	}
	if want := len(matrices) + k; resident != want {
		t.Fatalf("backends hold %d built matrices for %d distinct solved matrices", resident, want)
	}

	// Idempotent resubmission end to end: same request_id twice — the
	// backend answers with the same job both times.
	body := `{"matrix":"poisson2d:12","method":"pcg","request_id":"e2e-dup-1"}`
	code1, doc1 := solve(body)
	code2, doc2 := solve(body)
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("dup solves: HTTP %d then %d", code1, code2)
	}
	if doc1.ID == "" || doc1.ID != doc2.ID {
		t.Fatalf("request_id dedup failed: job ids %q vs %q", doc1.ID, doc2.ID)
	}

	// The gateway's /jobs route follows the remembered backend for the job.
	req := httptest.NewRequest(http.MethodGet, "/jobs/"+doc1.ID, nil)
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /jobs/%s via gateway: HTTP %d", doc1.ID, rec.Code)
	}
}

// realStack is a gateway over two real in-process spcgd servers.
func realStack(t *testing.T) ([]*service.Server, *Gateway) {
	t.Helper()
	var svcs []*service.Server
	var urls []string
	for i := 0; i < 2; i++ {
		s := service.New(service.Config{Workers: 2, QueueDepth: 32})
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
	g, err := New(Config{Backends: urls, probeInterval: time.Hour, retryBackoff: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(g.Close)
	return svcs, g
}

// TestSpecAliasesOneEntry: three spellings of one spec, solved through the
// gateway over real backends, reach one owner and one registry entry there:
// one backend builds the matrix once, and every solve is an affinity hit.
func TestSpecAliasesOneEntry(t *testing.T) {
	svcs, g := realStack(t)
	for _, m := range []string{"poisson2d:16", "POISSON2D:16:16", " poisson2d:016 "} {
		if rec := postSolveGW(t, g, fmt.Sprintf(`{"matrix":%q,"method":"pcg","precond":"jacobi"}`, m)); rec.Code != http.StatusOK {
			t.Fatalf("solve %q: HTTP %d, %s", m, rec.Code, rec.Body.String())
		}
	}
	var held []int
	for _, s := range svcs {
		held = append(held, s.Metrics().Registry.Matrices)
	}
	if held[0]+held[1] != 1 {
		t.Fatalf("backends hold %v built matrices, want one between them", held)
	}
	if snap := g.snapshot(); snap.AffinityHits != 3 || snap.AffinityMiss != 0 {
		t.Fatalf("hits=%d misses=%d, want 3/0", snap.AffinityHits, snap.AffinityMiss)
	}
}
