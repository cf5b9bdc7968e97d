package gateway

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestRingChurnStability verifies the property the whole affinity design
// rests on: when one of N backends drops, only the keys it owned move —
// every other key keeps its primary, so its caches stay warm.
func TestRingChurnStability(t *testing.T) {
	const members = 4
	const keys = 10000
	r := newRing(64)
	names := make([]string, members)
	for i := range names {
		names[i] = fmt.Sprintf("backend-%d", i)
		r.add(names[i])
	}
	before := make([]string, keys)
	for k := 0; k < keys; k++ {
		owners := r.lookup(uint64(k)*0x9e3779b9, 1)
		if len(owners) != 1 {
			t.Fatalf("lookup(%d) returned %v", k, owners)
		}
		before[k] = owners[0]
	}

	victim := names[1]
	r.remove(victim)
	moved := 0
	for k := 0; k < keys; k++ {
		after := r.lookup(uint64(k)*0x9e3779b9, 1)[0]
		if before[k] == victim {
			moved++
			continue
		}
		// The strict consistent-hashing guarantee: a key not owned by the
		// removed member must not move at all.
		if after != before[k] {
			t.Fatalf("key %d moved %s→%s although %s was removed", k, before[k], after, victim)
		}
	}
	// The victim's share is ~1/N up to vnode placement variance.
	frac := float64(moved) / keys
	if frac > 1.5/members {
		t.Fatalf("%.1f%% of keys moved, want ≈1/%d (≤%.1f%%)", 100*frac, members, 150.0/members)
	}
	if moved == 0 {
		t.Fatalf("no keys moved when a member dropped — victim held no arc?")
	}

	// Re-adding the member restores exactly the original ownership (vnode
	// placement is deterministic).
	r.add(victim)
	for k := 0; k < keys; k++ {
		if got := r.lookup(uint64(k)*0x9e3779b9, 1)[0]; got != before[k] {
			t.Fatalf("key %d owner %s after re-add, want %s", k, got, before[k])
		}
	}
}

// TestRingLookupReplicas checks the replica walk returns distinct members in
// deterministic order and degrades gracefully on small rings.
func TestRingLookupReplicas(t *testing.T) {
	r := newRing(32)
	for i := 0; i < 3; i++ {
		r.add(fmt.Sprintf("b%d", i))
	}
	got := r.lookup(42, 5)
	if len(got) != 3 {
		t.Fatalf("lookup(42,5) = %v, want all 3 distinct members", got)
	}
	seen := map[string]bool{}
	for _, o := range got {
		if seen[o] {
			t.Fatalf("duplicate owner %s in %v", o, got)
		}
		seen[o] = true
	}
	if again := r.lookup(42, 5); fmt.Sprint(again) != fmt.Sprint(got) {
		t.Fatalf("lookup not deterministic: %v then %v", got, again)
	}
	if r.lookup(42, 1)[0] != got[0] {
		t.Fatalf("primary changes with max")
	}
	empty := newRing(8)
	if out := empty.lookup(1, 2); out != nil {
		t.Fatalf("empty ring lookup = %v, want nil", out)
	}
}

// TestRingShares checks arc shares sum to 1 and are roughly balanced.
func TestRingShares(t *testing.T) {
	r := newRing(64)
	const members = 4
	for i := 0; i < members; i++ {
		r.add(fmt.Sprintf("b%d", i))
	}
	shares := r.shares()
	total := 0.0
	for name, s := range shares {
		total += s
		if s < 0.10 || s > 0.45 {
			t.Errorf("share[%s] = %.3f, want roughly 1/%d with 64 vnodes", name, s, members)
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %.6f, want 1", total)
	}
}

// healthyTransport answers every request as a healthy backend's /healthz,
// so a gateway can be built over backend names that resolve nowhere.
type healthyTransport struct{}

func (healthyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Request: r,
		Body: io.NopCloser(strings.NewReader(`{"status":"ok"}`))}, nil
}

// TestRingPlacementPinned pins where keys land: over three fixed backend
// names, each key's /affinity walk (its owner first) and each backend's arc
// share are the recorded ones. The shares move with every point, so a
// change of the vnode count cannot pass unnoticed where the ten walks would
// (at 63 vnodes they read the same); TestAffinityListsTheWalk pins the
// walk's length. The first two names are the benchmark's, and with the
// third off the ring a key's owner is the first of its walk that is not
// spcgd-54, so the table also pins serve_warm's placement: its six matrices
// come first, all owned by spcgd-52 on the benchmark's two-backend ring.
func TestRingPlacementPinned(t *testing.T) {
	g, err := New(Config{
		Backends:      []string{"http://spcgd-52.bench:80", "http://spcgd-53.bench:80", "http://spcgd-54.bench:80"},
		Client:        &http.Client{Transport: healthyTransport{}},
		probeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	const a, b, c = "spcgd-52.bench:80", "spcgd-53.bench:80", "spcgd-54.bench:80"
	for _, pin := range []struct {
		matrix string
		walk   []string
	}{
		{"poisson2d:16", []string{a, c, b}},
		{"poisson2d:32", []string{c, a, b}},
		{"poisson3d:16", []string{a, c, b}},
		{"hubgraph:4096", []string{a, c, b}},
		{"varcoeff2d:48:2:1", []string{a, c, b}},
		{"poisson2d:128", []string{c, a, b}},
		{"aniso2d:24:0.01", []string{c, a, b}},
		{"poisson3d:8", []string{c, b, a}},
		{"varcoeff2d:12:2:3", []string{a, b, c}},
		{"Dubcova3", []string{c, b, a}},
	} {
		doc := getAffinity(t, g, pin.matrix)
		if !slices.Equal(doc.Replicas, pin.walk) || doc.Backend != pin.walk[0] {
			t.Errorf("%s (key %s): walk %v, owner %s; pinned %v", pin.matrix, doc.Key, doc.Replicas, doc.Backend, pin.walk)
		}
	}
	shares := g.ring.shares()
	if got := fmt.Sprintf("%.4f %.4f %.4f", shares[a], shares[b], shares[c]); got != "0.3239 0.3410 0.3351" {
		t.Errorf("arc shares %s, pinned 0.3239 0.3410 0.3351", got)
	}
}
