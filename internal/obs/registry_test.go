package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden locks the text exposition format byte-for-byte: a
// counter, a labeled counter pair, a gauge, a func-backed gauge and a
// labeled histogram, in deterministic family/series order.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("spcg_requests_total", "Accepted solve submissions.").Add(42)
	r.Counter("spcg_jobs_total", "Finished jobs by state.", L("state", "done")).Add(7)
	r.Counter("spcg_jobs_total", "Finished jobs by state.", L("state", "failed")).Add(1)
	r.Gauge("spcg_in_flight", "Jobs currently executing.").Set(3)
	r.GaugeFunc("spcg_queue_depth", "Jobs admitted but not yet running.", func() float64 { return 5 })
	h := r.Histogram("spcg_solve_duration_seconds", "Solve wall time.", []float64{0.1, 1}, L("method", "pcg"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP spcg_in_flight Jobs currently executing.
# TYPE spcg_in_flight gauge
spcg_in_flight 3
# HELP spcg_jobs_total Finished jobs by state.
# TYPE spcg_jobs_total counter
spcg_jobs_total{state="done"} 7
spcg_jobs_total{state="failed"} 1
# HELP spcg_queue_depth Jobs admitted but not yet running.
# TYPE spcg_queue_depth gauge
spcg_queue_depth 5
# HELP spcg_requests_total Accepted solve submissions.
# TYPE spcg_requests_total counter
spcg_requests_total 42
# HELP spcg_solve_duration_seconds Solve wall time.
# TYPE spcg_solve_duration_seconds histogram
spcg_solve_duration_seconds_bucket{method="pcg",le="0.1"} 1
spcg_solve_duration_seconds_bucket{method="pcg",le="1"} 2
spcg_solve_duration_seconds_bucket{method="pcg",le="+Inf"} 3
spcg_solve_duration_seconds_sum{method="pcg"} 3.05
spcg_solve_duration_seconds_count{method="pcg"} 3
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCounterGaugeSemantics covers get-or-create identity, Add/Inc/Set
// and the kind-mismatch panic.
func TestCounterGaugeSemantics(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "h")
	c2 := r.Counter("x_total", "h")
	c1.Inc()
	c2.Add(2)
	if c1.Value() != 3 {
		t.Fatalf("shared counter value = %d, want 3", c1.Value())
	}
	g := r.Gauge("g", "h")
	g.Set(4)
	g.Add(-1.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "h")
}

// TestHistogramSnapshotQuantile checks bucket assignment, sum/max tracking
// and the interpolated quantile estimate.
func TestHistogramSnapshotQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 8} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Max != 8 {
		t.Fatalf("count=%d max=%v", s.Count, s.Max)
	}
	if want := []int64{1, 2, 1, 1}; len(s.Counts) != 4 ||
		s.Counts[0] != want[0] || s.Counts[1] != want[1] || s.Counts[2] != want[2] || s.Counts[3] != want[3] {
		t.Fatalf("bucket counts = %v, want %v", s.Counts, want)
	}
	if math.Abs(s.Sum-14.5) > 1e-12 {
		t.Fatalf("sum = %v, want 14.5", s.Sum)
	}
	q50 := s.Quantile(0.5)
	if q50 < 1 || q50 > 2 {
		t.Fatalf("p50 = %v, want within its bucket (1, 2]", q50)
	}
	q99 := s.Quantile(0.99)
	if q99 < 4 || q99 > 8 {
		t.Fatalf("p99 = %v, want within the overflow bucket (4, 8]", q99)
	}
	if empty := r.Histogram("lat2", "h", []float64{1}).Snapshot(); empty.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", empty.Quantile(0.5))
	}
}

// TestConcurrentRegistry exercises concurrent metric updates and scrapes
// under -race.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "h")
	h := r.Histogram("dur", "h", []float64{0.001, 0.01})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Inc()
				h.Observe(0.002)
				var buf bytes.Buffer
				if i%50 == 0 {
					_ = r.WritePrometheus(&buf)
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 1600 {
		t.Fatalf("counter = %d, want 1600", c.Value())
	}
	if s := h.Snapshot(); s.Count != 1600 {
		t.Fatalf("histogram count = %d, want 1600", s.Count)
	}
}

// TestLabelEscaping: label values with quotes, backslashes and newlines are
// escaped per the exposition format.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "h", L("k", "a\"b\\c\nd")).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `esc_total{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong:\n%s", buf.String())
	}
}
