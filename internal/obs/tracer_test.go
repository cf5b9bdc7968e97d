package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestNilTracerIsSafe: every method must no-op on a nil *Tracer — the
// pay-for-use contract the solver hot path relies on.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	start := tr.Begin()
	if !start.IsZero() {
		t.Fatalf("nil Begin returned non-zero time %v", start)
	}
	tr.End(PhaseSpMV, start)
	tr.Count(PhaseCollective, 3)
	tr.Reset()
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil Spans = %v, want nil", got)
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("nil Dropped = %d", d)
	}
	b := tr.Breakdown()
	if len(b.Phases) != 0 || b.Collectives != 0 {
		t.Fatalf("nil Breakdown = %+v, want zero", b)
	}
}

// TestRingWraparound: with capacity c and c+k emissions, the ring retains the
// most recent c spans in order, reports k drops, and the per-phase aggregates
// still count every span.
func TestRingWraparound(t *testing.T) {
	const capacity, total = 8, 21
	tr := New(capacity)
	for i := 0; i < total; i++ {
		tr.Count(PhaseCollective, int64(i))
	}
	spans := tr.Spans()
	if len(spans) != capacity {
		t.Fatalf("retained %d spans, want %d", len(spans), capacity)
	}
	// Payload encodes the emission index; the retained window is the tail.
	for i, sp := range spans {
		want := int64(total - capacity + i)
		if sp.Payload != want {
			t.Fatalf("span %d payload = %d, want %d", i, sp.Payload, want)
		}
	}
	if d := tr.Dropped(); d != total-capacity {
		t.Fatalf("Dropped = %d, want %d", d, total-capacity)
	}
	b := tr.Breakdown()
	if b.Collectives != total {
		t.Fatalf("aggregate collective count = %d, want %d (drops must not affect aggregates)", b.Collectives, total)
	}
	wantPayload := int64(total * (total - 1) / 2)
	if b.CollectiveValues != wantPayload {
		t.Fatalf("aggregate payload = %d, want %d", b.CollectiveValues, wantPayload)
	}
	if b.SpansDropped != total-capacity || b.SpansRetained != capacity {
		t.Fatalf("breakdown ring state = (%d retained, %d dropped)", b.SpansRetained, b.SpansDropped)
	}
}

// TestConcurrentEmit hammers one tracer from many goroutines (run under
// -race in CI) and checks the aggregates add up exactly.
func TestConcurrentEmit(t *testing.T) {
	const goroutines, perG = 8, 500
	tr := New(64) // small ring: force wraparound under contention
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				start := tr.Begin()
				tr.End(PhaseSpMV, start)
				tr.Count(PhaseCollective, 2)
			}
		}()
	}
	wg.Wait()
	b := tr.Breakdown()
	var spmv int64
	for _, st := range b.Phases {
		if st.Phase == "spmv" {
			spmv = st.Count
		}
	}
	if spmv != goroutines*perG {
		t.Fatalf("spmv count = %d, want %d", spmv, goroutines*perG)
	}
	if b.Collectives != goroutines*perG || b.CollectiveValues != 2*goroutines*perG {
		t.Fatalf("collectives = %d (%d values), want %d (%d)",
			b.Collectives, b.CollectiveValues, goroutines*perG, 2*goroutines*perG)
	}
}

// TestSpanDurations: End records a duration ≥ the slept time, and Breakdown
// sums it into the phase and total.
func TestSpanDurations(t *testing.T) {
	tr := New(16)
	start := tr.Begin()
	time.Sleep(2 * time.Millisecond)
	tr.End(PhasePrec, start)
	b := tr.Breakdown()
	if len(b.Phases) != 1 || b.Phases[0].Phase != "prec" {
		t.Fatalf("phases = %+v", b.Phases)
	}
	if b.Phases[0].Seconds < 0.002 {
		t.Fatalf("prec seconds = %v, want >= 0.002", b.Phases[0].Seconds)
	}
	if b.TotalSeconds != b.Phases[0].Seconds {
		t.Fatalf("total %v != phase sum %v", b.TotalSeconds, b.Phases[0].Seconds)
	}
}

// TestWriteJSON: the export round-trips as JSON with named phases.
func TestWriteJSON(t *testing.T) {
	tr := New(4)
	tr.End(PhaseGram, tr.Begin())
	tr.Count(PhaseCollective, 5)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Breakdown Breakdown `json:"breakdown"`
		Spans     []struct {
			Phase string `json:"phase"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Spans) != 2 || doc.Spans[0].Phase != "gram" || doc.Spans[1].Phase != "collective" {
		t.Fatalf("spans = %+v", doc.Spans)
	}
	if doc.Breakdown.Collectives != 1 || doc.Breakdown.CollectiveValues != 5 {
		t.Fatalf("breakdown = %+v", doc.Breakdown)
	}
}

// TestRenderBreakdown sanity-checks the table renderer's shape.
func TestRenderBreakdown(t *testing.T) {
	tr := New(8)
	tr.End(PhaseSpMV, tr.Begin())
	tr.Count(PhaseCollective, 4)
	var buf bytes.Buffer
	tr.Breakdown().Render(&buf)
	out := buf.String()
	for _, want := range []string{"phase", "spmv", "collective", "total"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestPhaseNames: every defined phase has a distinct stable name.
func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < NumPhases; p++ {
		name := p.String()
		if name == "" || name == "unknown" || seen[name] {
			t.Fatalf("phase %d has bad or duplicate name %q", p, name)
		}
		seen[name] = true
	}
	if Phase(200).String() != "unknown" {
		t.Fatalf("out-of-range phase name = %q", Phase(200).String())
	}
}

// TestReset clears ring, drops and aggregates.
func TestReset(t *testing.T) {
	tr := New(2)
	for i := 0; i < 5; i++ {
		tr.Count(PhaseCollective, 1)
	}
	tr.Reset()
	if len(tr.Spans()) != 0 || tr.Dropped() != 0 || len(tr.Breakdown().Phases) != 0 {
		t.Fatalf("Reset left state: spans=%d dropped=%d phases=%+v",
			len(tr.Spans()), tr.Dropped(), tr.Breakdown().Phases)
	}
}
