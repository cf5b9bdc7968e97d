package tune

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"spcg/internal/solver"
	"spcg/internal/sparse"
)

// TestSeedWellConditioned: on a benign operator nothing is pruned, the plan
// is capped, and the PCG baseline survives.
func TestSeedWellConditioned(t *testing.T) {
	a := sparse.Poisson2D(16, 16)
	plan, err := Seed(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cond <= 0 {
		t.Errorf("no condition estimate: %v", plan.Cond)
	}
	if len(plan.Pruned) != 0 {
		t.Errorf("benign operator pruned candidates: %+v", plan.Pruned)
	}
	if len(plan.Candidates) == 0 || len(plan.Candidates) > maxCandidates+1 {
		t.Fatalf("plan size %d outside (0, %d]", len(plan.Candidates), maxCandidates+1)
	}
	hasPCG := false
	for _, c := range plan.Candidates {
		if c.Method == "pcg" {
			hasPCG = true
		}
	}
	if !hasPCG {
		t.Errorf("PCG baseline missing from plan: %v", plan.Candidates)
	}
	if plan.Fingerprint != a.Fingerprint() {
		t.Error("plan fingerprint does not match the matrix")
	}
}

// TestSeedPrunesMonomialWhenIllConditioned: a strongly anisotropic operator
// pushes the κ estimate past the cutoff, so monomial at large s is ruled out
// statically — the paper's basis-conditioning result as a planning rule.
func TestSeedPrunesMonomialWhenIllConditioned(t *testing.T) {
	a := sparse.Anisotropic2D(24, 24, 1e-3)
	// Force the gate regardless of probe noise on a small operator.
	plan, err := Seed(a, Config{MonomialCondCutoff: 1, MonomialMaxS: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Pruned) == 0 {
		t.Fatalf("expected monomial-at-large-s pruning (cond estimate %.3g)", plan.Cond)
	}
	for _, p := range plan.Pruned {
		if p.Candidate.Basis != "monomial" || p.Candidate.S <= 4 {
			t.Errorf("pruned a non-fragile candidate: %+v", p)
		}
	}
	for _, c := range plan.Candidates {
		if c.Basis == "monomial" && c.S > 4 {
			t.Errorf("fragile candidate survived pruning: %v", c)
		}
	}
}

// fakeRunner scripts outcomes per method name.
type fakeRunner struct {
	outcomes map[string]Outcome
	probes   int
}

func (f *fakeRunner) Probe(c Candidate, maxIters int, tol float64) Outcome {
	f.probes++
	if o, ok := f.outcomes[c.Method]; ok {
		return o
	}
	return Outcome{Iterations: maxIters, Relative: 0.5, ElapsedMS: 10}
}

// TestRunEliminatesBreakdowns: a candidate that broke down in trials can
// never be the winner nor appear in the ranked fallback list, regardless of
// how fast it looked.
func TestRunEliminatesBreakdowns(t *testing.T) {
	plan := &Plan{
		Fingerprint: 42,
		Candidates: []Candidate{
			{Method: "spcg", S: 16, Basis: "monomial", Precond: "jacobi"},
			{Method: "capcg", S: 8, Basis: "chebyshev", Precond: "jacobi"},
			{Method: "pcg", Precond: "jacobi"},
		},
	}
	r := &fakeRunner{outcomes: map[string]Outcome{
		// Fastest on paper, but it broke down: must be eliminated.
		"spcg":  {Iterations: 3, Relative: 1e-12, ElapsedMS: 0.1, Breakdown: "gram matrix numerically rank-deficient"},
		"capcg": {Iterations: 40, Relative: 1e-6, ElapsedMS: 5},
		"pcg":   {Iterations: 40, Relative: 1e-3, ElapsedMS: 20},
	}}
	d, err := Run(plan, r, Config{Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.Winner.Method != "capcg" {
		t.Errorf("winner = %v, want capcg", d.Winner)
	}
	for _, rc := range d.Ranked {
		if rc.Candidate.Method == "spcg" {
			t.Errorf("broken-down candidate in ranked list: %+v", d.Ranked)
		}
	}
	found := false
	for _, tr := range d.Trials {
		if tr.Candidate.Method == "spcg" {
			if tr.Eliminated == "" {
				t.Error("breakdown trial not marked eliminated")
			}
			found = true
		}
	}
	if !found {
		t.Error("no trial recorded for the broken candidate")
	}
	if d.Fingerprint != FpString(42) {
		t.Errorf("decision fingerprint %q", d.Fingerprint)
	}
}

// TestRunAllEliminated: when everything dies the runner reports an error
// rather than inventing a winner.
func TestRunAllEliminated(t *testing.T) {
	plan := &Plan{Candidates: []Candidate{{Method: "spcg", S: 8, Basis: "monomial", Precond: "jacobi"}}}
	r := &fakeRunner{outcomes: map[string]Outcome{
		"spcg": {Breakdown: "non-positive curvature"},
	}}
	if _, err := Run(plan, r, Config{}); err == nil {
		t.Fatal("Run returned a winner from an all-eliminated field")
	}
}

// TestRunSuccessiveHalving: the field shrinks by half each round and the cap
// quadruples, so later rounds spend their budget on promising candidates.
func TestRunSuccessiveHalving(t *testing.T) {
	plan := &Plan{Candidates: []Candidate{
		{Method: "pcg", Precond: "jacobi"},
		{Method: "spcg", S: 4, Basis: "chebyshev", Precond: "jacobi"},
		{Method: "capcg", S: 4, Basis: "chebyshev", Precond: "jacobi"},
		{Method: "capcg3", S: 4, Basis: "chebyshev", Precond: "jacobi"},
	}}
	r := &fakeRunner{outcomes: map[string]Outcome{
		"pcg":    {Iterations: 40, Relative: 1e-2, ElapsedMS: 40},
		"spcg":   {Iterations: 40, Relative: 1e-8, ElapsedMS: 4},
		"capcg":  {Iterations: 40, Relative: 1e-6, ElapsedMS: 8},
		"capcg3": {Iterations: 40, Relative: 1e-4, ElapsedMS: 30},
	}}
	d, err := Run(plan, r, Config{Rounds: 3, ProbeIters: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Round 0: 4 probes; round 1: top 2; round 2: top 1. 7 total.
	if r.probes != 7 {
		t.Errorf("probes = %d, want 7 (4+2+1)", r.probes)
	}
	if d.Winner.Method != "spcg" {
		t.Errorf("winner = %v, want spcg", d.Winner)
	}
	caps := map[int]int{}
	for _, tr := range d.Trials {
		caps[tr.Round] = tr.IterCap
	}
	if caps[0] != 40 || caps[1] != 160 || caps[2] != 640 {
		t.Errorf("iteration caps per round = %v, want 40/160/640", caps)
	}
}

// TestDirectRunnerProbe: a real probe on a small SPD system converges and
// reports sane numbers; an unknown method errors without panicking.
func TestDirectRunnerProbe(t *testing.T) {
	a := sparse.Poisson2D(12, 12)
	r := &DirectRunner{A: a}
	o := r.Probe(Candidate{Method: "pcg", Precond: "jacobi"}, 400, 1e-8)
	if o.Err != "" || o.Breakdown != "" {
		t.Fatalf("probe failed: %+v", o)
	}
	if !o.Converged || o.Relative > 1e-8 || o.Iterations == 0 {
		t.Errorf("probe did not converge: %+v", o)
	}
	o = r.Probe(Candidate{Method: "spcg", S: 4, Basis: "chebyshev", Precond: "jacobi"}, 400, 1e-8)
	if o.Err != "" || o.Breakdown != "" || !o.Converged {
		t.Errorf("spcg probe: %+v", o)
	}
	if o = r.Probe(Candidate{Method: "nope", Precond: "jacobi"}, 10, 1e-8); o.Err == "" {
		t.Error("unknown method did not error")
	}
	if o = r.Probe(Candidate{Method: "pcg", Precond: "bogus"}, 10, 1e-8); o.Err == "" {
		t.Error("unknown preconditioner did not error")
	}
}

// TestTimeProbeRepeatsSmallProbes: a probe on a tiny matrix is timed
// probeSamples times and keeps its fastest run, so one stalled run does not
// score the candidate; a probe on a larger matrix, or one that broke down,
// runs once.
func TestTimeProbeRepeatsSmallProbes(t *testing.T) {
	const stall = 50 * time.Millisecond
	calls := 0
	solve := func() (*solver.Stats, error) {
		calls++
		if calls == 1 {
			time.Sleep(stall)
		}
		return &solver.Stats{Iterations: 30, FinalRelative: 1e-3}, nil
	}
	o := TimeProbe(100, solve)
	if calls != probeSamples {
		t.Errorf("small probe ran %d times, want %d", calls, probeSamples)
	}
	if o.ElapsedMS >= float64(stall/time.Millisecond) || o.Iterations != 30 {
		t.Errorf("small probe outcome %+v: want the fast run's time and the run's stats", o)
	}

	calls = 0
	TimeProbe(tinyProbeNNZ, solve)
	if calls != 1 {
		t.Errorf("probe at the size bound ran %d times, want 1", calls)
	}
	calls = 0
	TimeProbe(100, func() (*solver.Stats, error) {
		calls++
		return &solver.Stats{Breakdown: errors.New("gram system singular")}, nil
	})
	if calls != 1 {
		t.Errorf("broken-down probe ran %d times, want 1", calls)
	}
}

// TestStoreRoundTrip: decisions survive a close/reopen cycle byte-exactly
// enough to serve (winner, ranking, source), and the file carries the
// schema version.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tune.json")
	st, err := OpenStore(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	d := &Decision{
		Fingerprint: FpString(7),
		Matrix:      "poisson2d:16",
		Winner:      Candidate{Method: "spcg", S: 8, Basis: "chebyshev", Precond: "jacobi"},
		Ranked: []RankedCandidate{
			{Candidate: Candidate{Method: "spcg", S: 8, Basis: "chebyshev", Precond: "jacobi"}, Score: 1.5},
			{Candidate: Candidate{Method: "pcg", Precond: "jacobi"}, Score: 9.0},
		},
		Source: "tuned",
	}
	if err := st.Put(d); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := re.Get(7)
	if !ok {
		t.Fatal("decision lost across reopen")
	}
	if got.Winner != d.Winner || got.Source != "tuned" || len(got.Ranked) != 2 {
		t.Errorf("reloaded decision differs: %+v", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version": 1`) {
		t.Errorf("store file missing schema version: %s", data)
	}
	if !strings.Contains(string(data), FpString(7)) {
		t.Errorf("store file missing hex fingerprint key: %s", data)
	}
}

// TestStoreVersionMismatch: an unknown schema version is a hard error, not a
// silent wipe.
func TestStoreVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.json")
	if err := os.WriteFile(path, []byte(`{"version": 99, "entries": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(path, 8); err == nil {
		t.Fatal("OpenStore accepted an unknown schema version")
	}
	if err := os.WriteFile(path, []byte(`{broken`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(path, 8); err == nil {
		t.Fatal("OpenStore accepted malformed JSON")
	}
}

// TestStoreLRUEviction: the entry bound holds and the least recently used
// decision goes first.
func TestStoreLRUEviction(t *testing.T) {
	st, err := OpenStore("", 2)
	if err != nil {
		t.Fatal(err)
	}
	put := func(fp uint64, lastUsed int64) {
		t.Helper()
		if err := st.Put(&Decision{Fingerprint: FpString(fp), Winner: Candidate{Method: "pcg", Precond: "jacobi"}, LastUsedUnix: lastUsed}); err != nil {
			t.Fatal(err)
		}
	}
	put(1, 100)
	put(2, 200)
	put(3, 300) // evicts fp 1
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
	if _, ok := st.Get(1); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := st.Get(2); !ok {
		t.Error("recent entry evicted")
	}
	if _, ok := st.Get(3); !ok {
		t.Error("newest entry evicted")
	}
}

// TestStoreEvictsByUseOrder: uses within one second are still ordered. A Put
// into a full store never evicts the decision it just stored; it evicts the
// entry least recently used by Get and Put.
func TestStoreEvictsByUseOrder(t *testing.T) {
	for trial := range 50 {
		st, err := OpenStore("", 4)
		if err != nil {
			t.Fatal(err)
		}
		put := func(fp uint64) {
			t.Helper()
			if err := st.Put(&Decision{Fingerprint: FpString(fp), Winner: Candidate{Method: "pcg", Precond: "jacobi"}}); err != nil {
				t.Fatal(err)
			}
		}
		for fp := uint64(1); fp <= 4; fp++ {
			put(fp)
		}
		if _, ok := st.Get(1); !ok { // 2 is now the least recently used
			t.Fatal("entry 1 missing before the store was full")
		}
		put(5)
		put(1) // replacing an entry evicts nothing
		for fp, want := range map[uint64]bool{1: true, 2: false, 3: true, 4: true, 5: true} {
			if _, ok := st.Get(fp); ok != want {
				t.Fatalf("trial %d: entry %d present %v, want %v", trial, fp, ok, want)
			}
		}
	}
}

// TestStoreGetConcurrentReaders: Get hands out a decision no later Get
// writes, so readers may encode what they got without the store's lock (the
// GET /tune/{matrix} and method:"auto" paths). Meaningful under -race.
func TestStoreGetConcurrentReaders(t *testing.T) {
	st, err := OpenStore("", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(&Decision{Fingerprint: FpString(3), Winner: Candidate{Method: "pcg", Precond: "jacobi"}}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				d, ok := st.Get(3)
				if !ok {
					t.Error("entry missing")
					return
				}
				if _, err := json.Marshal(d); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStoreMemoryOnly: an empty path persists nothing but otherwise works.
func TestStoreMemoryOnly(t *testing.T) {
	st, err := OpenStore("", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(&Decision{Fingerprint: FpString(9), Winner: Candidate{Method: "pcg", Precond: "jacobi"}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(9); !ok {
		t.Error("memory-only store lost its entry")
	}
}

// TestCandidateString pins the compact rendering used in logs and reports.
func TestCandidateString(t *testing.T) {
	c := Candidate{Method: "spcg", S: 8, Basis: "chebyshev", Precond: "jacobi"}
	if got := c.String(); got != "spcg(s=8,chebyshev)+jacobi" {
		t.Errorf("String() = %q", got)
	}
	c = Candidate{Method: "pcg", Precond: "ssor:1.2"}
	if got := c.String(); got != "pcg+ssor:1.2" {
		t.Errorf("String() = %q", got)
	}
}

// TestEndToEndTuneIllConditioned is the package-level version of the
// acceptance scenario: on an anisotropic operator the tuner must never
// select a monomial-at-large-s configuration (it either never ran — pruned —
// or broke down/underperformed in trials) and must hand back a usable
// winner.
func TestEndToEndTuneIllConditioned(t *testing.T) {
	a := sparse.Anisotropic2D(24, 24, 1e-3)
	cfg := Config{
		SValues:  []int{4, 8, 16},
		Preconds: []string{"jacobi"},
		Rounds:   2,
	}
	plan, err := Seed(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Run(plan, &DirectRunner{A: a}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Winner.Basis == "monomial" && d.Winner.S > 4 {
		t.Errorf("tuner selected a fragile monomial configuration: %v", d.Winner)
	}
	for _, tr := range d.Trials {
		if tr.Eliminated == "" {
			continue
		}
		for _, rc := range d.Ranked {
			if rc.Candidate == tr.Candidate {
				t.Errorf("eliminated candidate %v present in ranked list", tr.Candidate)
			}
		}
	}
	// The winner must actually solve the system.
	o := (&DirectRunner{A: a}).Probe(d.Winner, 20000, 1e-8)
	if o.Breakdown != "" || o.Err != "" || !o.Converged {
		t.Errorf("winner %v does not solve the system: %+v", d.Winner, o)
	}
}
