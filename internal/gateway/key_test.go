package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
)

// affinityDoc is the gateway's GET /affinity/{matrix} answer.
type affinityDoc struct {
	Matrix   string   `json:"matrix"`
	Key      string   `json:"key"`
	Replicas []string `json:"replicas"`
	Backend  string   `json:"backend"`
}

func getAffinity(t *testing.T, g *Gateway, matrix string) affinityDoc {
	t.Helper()
	rec := serveGW(g, http.MethodGet, "/affinity/"+url.PathEscape(matrix), "")
	var doc affinityDoc
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &doc) != nil {
		t.Fatalf("GET /affinity/%s: HTTP %d, %s", matrix, rec.Code, rec.Body.String())
	}
	return doc
}

// TestAffinityListsTheWalk: GET /affinity lists the replicas a solve
// actually tries, in order. Over four stubs, with the default budgets (two
// failovers, one spill), the walk's first backend sheds, the next two are
// draining and the fourth serves: the attempts are the listed replicas.
func TestAffinityListsTheWalk(t *testing.T) {
	stubs := []*stub{newStub(), newStub(), newStub(), newStub()}
	byName := map[string]*stub{}
	for _, s := range stubs {
		defer s.srv.Close()
		byName[strings.TrimPrefix(s.srv.URL, "http://")] = s
	}
	g := newTestGateway(t, stubs...)
	aff := getAffinity(t, g, "poisson2d:16")
	if aff.Key != "poisson2d:16:16" || len(aff.Replicas) != 4 || aff.Backend != aff.Replicas[0] {
		t.Fatalf("affinity %+v: want key poisson2d:16:16 and a walk over all 4 backends, owner first", aff)
	}

	var mu sync.Mutex
	var attempts []string
	for i, name := range aff.Replicas {
		code := []int{http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusServiceUnavailable, http.StatusOK}[i]
		byName[name].setSolve(func(w http.ResponseWriter, _ *http.Request) {
			mu.Lock()
			attempts = append(attempts, name)
			mu.Unlock()
			if code != http.StatusOK {
				w.WriteHeader(code)
			}
			fmt.Fprint(w, `{"id":"job-1","state":"done","result":{"converged":true}}`)
		})
	}
	if rec := postSolveGW(t, g, `{"matrix":"poisson2d:16","method":"pcg"}`); rec.Code != http.StatusOK {
		t.Fatalf("solve over the whole walk: HTTP %d, %s", rec.Code, rec.Body.String())
	}
	if !slices.Equal(attempts, aff.Replicas) {
		t.Fatalf("attempts %v, /affinity listed %v", attempts, aff.Replicas)
	}
}

// TestKeyNeedsNoBackend: the gateway keys a matrix itself. An unknown or
// malformed name is a 400 on every matrix route with no backend contacted,
// GET /affinity asks no backend either, and the first request a backend
// sees after its health probes is the first solve.
func TestKeyNeedsNoBackend(t *testing.T) {
	a, b := newStub(), newStub()
	defer a.srv.Close()
	defer b.srv.Close()
	g := newTestGateway(t, a, b)

	for _, m := range []string{"no_such_matrix", "poisson2d:0", "poisson2d:x", "nope:6"} {
		for _, req := range []struct{ method, path, body string }{
			{http.MethodPost, "/solve", fmt.Sprintf(`{"matrix":%q,"method":"pcg"}`, m)},
			{http.MethodPost, "/solve", fmt.Sprintf(`{"matrix":%q,"method":"pcg","async":true}`, m)},
			{http.MethodPost, "/tune", fmt.Sprintf(`{"matrix":%q}`, m)},
			{http.MethodGet, "/tune/" + url.PathEscape(m), ""},
			{http.MethodGet, "/affinity/" + url.PathEscape(m), ""},
		} {
			if rec := serveGW(g, req.method, req.path, req.body); rec.Code != http.StatusBadRequest {
				t.Errorf("%s %s %s: HTTP %d, want 400", req.method, req.path, req.body, rec.Code)
			}
		}
	}
	// An empty name has no path form; in a body it is a 400 like the rest.
	for _, m := range []string{"", "  "} {
		for _, req := range []struct{ path, body string }{
			{"/solve", fmt.Sprintf(`{"matrix":%q,"method":"pcg"}`, m)},
			{"/tune", fmt.Sprintf(`{"matrix":%q}`, m)},
		} {
			if rec := serveGW(g, http.MethodPost, req.path, req.body); rec.Code != http.StatusBadRequest {
				t.Errorf("POST %s %s: HTTP %d, want 400", req.path, req.body, rec.Code)
			}
		}
	}
	getAffinity(t, g, "poisson2d:16")
	if rec := postSolveGW(t, g, `{"matrix":"poisson2d:16","method":"pcg"}`); rec.Code != http.StatusOK {
		t.Fatalf("solve: HTTP %d", rec.Code)
	}
	var seen []string
	for _, s := range []*stub{a, b} {
		s.mu.Lock()
		for _, p := range s.paths {
			if p != "/healthz" {
				seen = append(seen, p)
			}
		}
		s.mu.Unlock()
	}
	if !slices.Equal(seen, []string{"/solve"}) {
		t.Fatalf("backends saw %v besides /healthz, want only the one /solve", seen)
	}
}
