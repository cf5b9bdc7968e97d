package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMetricsPrometheusText: GET /metrics serves valid-looking Prometheus
// text — correct content type, HELP/TYPE headers, and the acceptance
// criterion's metric groups (queue, cache, coalescing, kernels) — and the
// counters move after a solve.
func TestMetricsPrometheusText(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, st := postSolve(t, ts.URL, SolveRequest{Matrix: "poisson2d:16", Method: "spcg", S: 4}); code != http.StatusOK || st.State != JobDone {
		t.Fatalf("solve: HTTP %d, state %s", code, st.State)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, want := range []string{
		"# HELP spcgd_requests_total",
		"# TYPE spcgd_requests_total counter",
		"spcgd_requests_total 1",
		"spcgd_completed_total 1",
		"# TYPE spcgd_queue_depth gauge",
		"spcgd_setup_cache_misses_total 1",
		"# TYPE spcgd_request_duration_seconds histogram",
		`spcgd_request_duration_seconds_bucket{method="spcg",le="+Inf"} 1`,
		`spcgd_request_duration_seconds_count{method="spcg"} 1`,
		"spcgd_kernel_workers",
		"spcgd_solver_iterations_total",
		"spcgd_batch_size_max",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	// Every non-comment line is "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestMetricsJSONFormat: ?format=json still serves the structured snapshot
// (the spcgload/CI consumer contract).
func TestMetricsJSONFormat(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, st := postSolve(t, ts.URL, SolveRequest{Matrix: "poisson2d:16"}); code != http.StatusOK || st.State != JobDone {
		t.Fatalf("solve: HTTP %d, state %s", code, st.State)
	}
	m := getMetrics(t, ts.URL)
	if m.RequestsTotal != 1 || m.Completed != 1 {
		t.Errorf("snapshot counters: %+v", m)
	}
	if m.SetupCache.Misses != 1 {
		t.Errorf("setup cache: %+v", m.SetupCache)
	}
	if _, ok := m.Latency["pcg"]; !ok {
		t.Errorf("latency map missing pcg: %+v", m.Latency)
	}
}

// TestSolveTraceOption: "trace": true returns a per-phase breakdown in the
// job result and bypasses coalescing.
func TestSolveTraceOption(t *testing.T) {
	s := New(Config{Workers: 2, BatchMax: 8})
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, st := postSolve(t, ts.URL, SolveRequest{Matrix: "poisson2d:16", Method: "spcg", S: 4, Trace: true})
	if code != http.StatusOK || st.State != JobDone {
		t.Fatalf("solve: HTTP %d, state %s", code, st.State)
	}
	if st.Result == nil || len(st.Result.Phases) == 0 {
		t.Fatalf("traced solve returned no phases: %+v", st.Result)
	}
	var sawTime bool
	for _, p := range st.Result.Phases {
		if p.Count <= 0 {
			t.Errorf("phase %q with non-positive count", p.Phase)
		}
		sawTime = sawTime || p.Seconds > 0
	}
	if !sawTime {
		t.Errorf("no timed phase in %+v", st.Result.Phases)
	}
	if st.Result.Batched {
		t.Errorf("traced request was coalesced: %+v", st.Result)
	}

	// Untraced solves stay lean: no phases on the wire.
	code, st = postSolve(t, ts.URL, SolveRequest{Matrix: "poisson2d:16", NoBatch: true})
	if code != http.StatusOK || st.State != JobDone {
		t.Fatalf("untraced solve: HTTP %d, state %s", code, st.State)
	}
	if len(st.Result.Phases) != 0 {
		t.Errorf("untraced solve leaked phases: %+v", st.Result.Phases)
	}
}
