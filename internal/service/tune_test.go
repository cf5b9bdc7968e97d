package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"spcg/internal/tune"
)

// illMatrix is the strongly anisotropic operator the chaos harness already
// uses as a guaranteed monomial-at-large-s breakdown case: κ is large enough
// that fragile bases lose rank quickly.
const illMatrix = "aniso2d:24:0.001"

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestAutoEndToEnd is the acceptance scenario: on an ill-conditioned matrix
// a forced tuning run must reject monomial at large s (statically pruned or
// eliminated in trials), serve method:"auto" from the stored decision with a
// measured solve time no worse than the static PCG baseline, and the
// decision must survive a TuneStore reopen in a fresh server.
func TestAutoEndToEnd(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "tune.json")
	cfg := Config{
		Workers:        2,
		Scale:          1,
		TunePath:       storePath,
		TuneProbeIters: 30,
		TuneRounds:     2,
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())

	// Force a synchronous tuning run.
	code, body := postJSON(t, ts.URL+"/tune", map[string]string{"matrix": illMatrix})
	if code != http.StatusOK {
		t.Fatalf("POST /tune: HTTP %d: %s", code, body)
	}
	var d tune.Decision
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.Winner.Method == "" || len(d.Ranked) == 0 || d.Source != "tuned" {
		t.Fatalf("malformed decision: %+v", d)
	}
	if d.Winner.Basis == "monomial" && d.Winner.S > 4 {
		t.Errorf("tuner selected fragile monomial config on ill-conditioned operator: %v (κ≈%.3g)", d.Winner, d.Cond)
	}
	// The never-select-broken-config invariant: any candidate with a
	// breakdown trial must be absent from the ranked list.
	for _, tr := range d.Trials {
		if tr.Outcome.Breakdown == "" {
			continue
		}
		for _, rc := range d.Ranked {
			if rc.Candidate == tr.Candidate {
				t.Errorf("candidate %v broke down in trials but is ranked", tr.Candidate)
			}
		}
	}

	// Warm-path auto solve: resolved from the store, tuned config reported.
	solve := func(method string) JobStatus {
		t.Helper()
		code, st := postSolve(t, ts.URL, SolveRequest{Matrix: illMatrix, Method: method})
		if code != http.StatusOK || st.State != JobDone {
			t.Fatalf("solve method=%s: HTTP %d state=%s result=%+v", method, code, st.State, st.Result)
		}
		return st
	}
	// The tuned configuration must not lose to the static PCG baseline. The
	// box's speed drifts within seconds, so the two are timed alternately
	// (auto, pcg, auto, pcg, …) and the medians of the reported solve times
	// are compared; the slack absorbs scheduler noise on tiny solves.
	const reps = 51
	var auto JobStatus
	autoTimes, pcgTimes := make([]float64, reps), make([]float64, reps)
	for i := 0; i < reps; i++ {
		auto = solve("auto")
		autoTimes[i] = auto.Result.SolveMS
		pcgTimes[i] = solve("pcg").Result.SolveMS
	}
	sort.Float64s(autoTimes)
	sort.Float64s(pcgTimes)
	autoMS, pcgMS := autoTimes[reps/2], pcgTimes[reps/2]
	if auto.Result.TuneSource != "store" {
		t.Errorf("auto resolution source = %q, want store", auto.Result.TuneSource)
	}
	if auto.Result.TunedConfig == nil || *auto.Result.TunedConfig != d.Winner {
		t.Errorf("tuned_config = %+v, want winner %+v", auto.Result.TunedConfig, d.Winner)
	}
	if !auto.Result.Converged {
		t.Errorf("auto solve did not converge: %+v", auto.Result)
	}
	if autoMS > pcgMS*1.25 {
		t.Errorf("auto solve with %v (%.3fms) slower than static pcg baseline (%.3fms)", d.Winner, autoMS, pcgMS)
	}

	shutdownServer(t, s)
	ts.Close()

	// Fresh server, same store file: the decision must be served without
	// re-tuning.
	s2 := New(cfg)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer shutdownServer(t, s2)

	resp, err := http.Get(ts2.URL + "/tune/" + illMatrix)
	if err != nil {
		t.Fatal(err)
	}
	var d2 tune.Decision
	if err := json.NewDecoder(resp.Body).Decode(&d2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /tune after reopen: HTTP %d", resp.StatusCode)
	}
	if d2.Winner != d.Winner {
		t.Errorf("winner changed across store reopen: %v vs %v", d2.Winner, d.Winner)
	}
	code, st := postSolve(t, ts2.URL, SolveRequest{Matrix: illMatrix, Method: "auto"})
	if code != http.StatusOK || st.State != JobDone {
		t.Fatalf("auto solve after reopen: HTTP %d %+v", code, st)
	}
	if st.Result.TuneSource != "store" {
		t.Errorf("after reopen, auto source = %q, want store", st.Result.TuneSource)
	}
	m := getMetrics(t, ts2.URL)
	if m.Tune.Runs != 0 {
		t.Errorf("reopened server re-tuned (runs=%d), store should have served", m.Tune.Runs)
	}
	if m.Tune.StoreEntries != 1 {
		t.Errorf("store entries = %d, want 1", m.Tune.StoreEntries)
	}
}

// TestAutoColdMiss: with an empty store the first auto request is served
// immediately from the seeded guess while trials run in the background, and
// a later request hits the stored decision.
func TestAutoColdMiss(t *testing.T) {
	s := New(Config{Workers: 2, Scale: 1, TuneProbeIters: 20, TuneRounds: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownServer(t, s)

	code, st := postSolve(t, ts.URL, SolveRequest{Matrix: "poisson2d:16", Method: "auto"})
	if code != http.StatusOK || st.State != JobDone {
		t.Fatalf("cold auto solve: HTTP %d %+v", code, st)
	}
	if st.Result.TuneSource != "seed" {
		t.Errorf("cold auto source = %q, want seed", st.Result.TuneSource)
	}
	if st.Result.TunedConfig == nil {
		t.Fatal("cold auto solve missing tuned_config")
	}

	// Background trials land eventually; then the warm path serves the store.
	deadline := time.Now().Add(30 * time.Second)
	for {
		m := getMetrics(t, ts.URL)
		if m.Tune.Runs >= 1 && m.Tune.StoreEntries >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background tuning never completed: %+v", m.Tune)
		}
		time.Sleep(50 * time.Millisecond)
	}
	code, st = postSolve(t, ts.URL, SolveRequest{Matrix: "poisson2d:16", Method: "auto"})
	if code != http.StatusOK || st.Result.TuneSource != "store" {
		t.Fatalf("warm auto solve: HTTP %d source=%q", code, st.Result.TuneSource)
	}
	m := getMetrics(t, ts.URL)
	if m.Tune.Requests < 2 || m.Tune.StoreHits < 1 || m.Tune.StoreMisses < 1 || m.Tune.Trials == 0 {
		t.Errorf("tune metrics inconsistent: %+v", m.Tune)
	}
}

// TestAutoBackgroundTuneDeduped: a burst of cold auto requests for one
// matrix starts exactly one background tuning run — also for the request
// that missed the store while the run was in flight and reaches the dedup
// check only after the run has stored its decision and left.
func TestAutoBackgroundTuneDeduped(t *testing.T) {
	s := New(Config{Workers: 4, Scale: 1, TuneProbeIters: 20, TuneRounds: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const name = "poisson2d:12"
	for i := 0; i < 6; i++ {
		code, st := postSolve(t, ts.URL, SolveRequest{Matrix: name, Method: "auto", NoBatch: true})
		if code != http.StatusOK || st.State != JobDone {
			t.Fatalf("auto solve %d: HTTP %d %+v", i, code, st)
		}
	}
	// The late request, replayed from where resolveAuto stands after its
	// store miss and its Seed: the run it raced has finished.
	a, fp, err := s.reg.get(name)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tune.Seed(a, s.tuner.cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.bg.Wait()
	s.startBackgroundTune(a, fp, name, plan)

	shutdownServer(t, s) // waits for background tuning
	if runs := s.met.tuneRuns.Value(); runs != 1 {
		t.Errorf("background tuning ran %d times for one matrix, want 1", runs)
	}
}

// TestBadBasisRejected (satellite): unknown basis strings are refused at
// admission with the named error and HTTP 400; casing and whitespace are
// normalized rather than rejected.
func TestBadBasisRejected(t *testing.T) {
	s := New(Config{Workers: 1, Scale: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownServer(t, s)

	if _, err := s.Submit(SolveRequest{Matrix: "poisson2d:8", Method: "spcg", S: 4, Basis: "legendre"}); !errors.Is(err, ErrBadBasis) {
		t.Errorf("Submit with unknown basis: err = %v, want ErrBadBasis", err)
	}
	code, body := postJSON(t, ts.URL+"/solve", SolveRequest{Matrix: "poisson2d:8", Method: "spcg", S: 4, Basis: "legendre"})
	if code != http.StatusBadRequest {
		t.Errorf("unknown basis: HTTP %d, want 400 (%s)", code, body)
	}
	if !bytes.Contains(body, []byte("unknown basis")) {
		t.Errorf("error body does not name the basis failure: %s", body)
	}
	code, st := postSolve(t, ts.URL, SolveRequest{Matrix: "poisson2d:8", Method: "spcg", S: 4, Basis: "  Chebyshev "})
	if code != http.StatusOK || st.State != JobDone {
		t.Errorf("normalized basis rejected: HTTP %d %+v", code, st)
	}
}

// TestTuneEndpointValidation: bad bodies and unknown matrices are 4xx, and
// an untuned matrix is a 404.
func TestTuneEndpointValidation(t *testing.T) {
	s := New(Config{Workers: 1, Scale: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownServer(t, s)

	if code, _ := postJSON(t, ts.URL+"/tune", map[string]string{}); code != http.StatusBadRequest {
		t.Errorf("POST /tune without matrix: HTTP %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/tune", map[string]string{"matrix": "mystery:4"}); code != http.StatusBadRequest {
		t.Errorf("POST /tune unknown matrix: HTTP %d, want 400", code)
	}
	resp, err := http.Get(ts.URL + "/tune/poisson2d:8")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /tune untuned matrix: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestTuneShutdownCancelsBackground: Shutdown with an expired context still
// returns promptly while a background tune is in flight (probes observe the
// base context).
func TestTuneShutdownCancelsBackground(t *testing.T) {
	s := New(Config{Workers: 2, Scale: 1, TuneProbeIters: 2000, TuneRounds: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, st := postSolve(t, ts.URL, SolveRequest{Matrix: illMatrix, Method: "auto"})
	if code != http.StatusOK || st.State != JobDone {
		t.Fatalf("auto solve: HTTP %d %+v", code, st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_ = s.Shutdown(ctx)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("Shutdown took %s with a background tune in flight", elapsed)
	}
}
