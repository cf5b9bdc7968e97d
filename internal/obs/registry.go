package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, e.g. L("method", "pcg").
type Label struct {
	Key   string
	Value string
}

// L constructs a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind is a metric family's type in the Prometheus sense.
type Kind uint8

// Metric family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Registry is a typed metric registry: counters, gauges and histograms,
// optionally labeled, exposable as Prometheus text (WritePrometheus). All
// constructors are get-or-create and safe for concurrent use; registering the
// same name with a different kind panics (a programming error, caught by the
// first scrape in tests).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family groups every labeled series of one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	series map[string]*series // keyed by rendered label signature
	order  []string           // signatures in registration order
}

// series is one labeled instance of a family.
type series struct {
	// counter/gauge value; counters hold integers in bits' float encoding.
	bits atomic.Uint64
	// read, when non-nil, supplies the value at scrape time (CounterFunc /
	// GaugeFunc).
	read func() float64

	// histogram state (nil for counter/gauge).
	hist *histState
}

type histState struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1, last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
	maxBits atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) get(name, help string, kind Kind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	sig := labelSignature(labels)
	s := f.series[sig]
	if s == nil {
		s = &series{}
		f.series[sig] = s
		f.order = append(f.order, sig)
	}
	return s
}

// Counter returns the counter series for name and labels, creating it on
// first use. Counters are monotone; use Add/Inc.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return &Counter{r.get(name, help, KindCounter, labels)}
}

// CounterFunc registers a counter whose value is read from fn at scrape time
// (for pre-existing atomic counters like the pool's kernel totals).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.get(name, help, KindCounter, labels).read = fn
}

// Gauge returns the gauge series for name and labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return &Gauge{r.get(name, help, KindGauge, labels)}
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.get(name, help, KindGauge, labels).read = fn
}

// LatencyBuckets are the request-latency bucket upper bounds in seconds that
// the daemon and the gateway share, so a gateway hop and the solve behind it
// land on one grid. The quantile estimate interpolates inside the winning
// bucket, which is accurate enough for serving dashboards (the benchmark's
// serve workloads compute exact percentiles from their own samples).
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram returns the histogram series for name and labels, creating it
// with the given bucket upper bounds (ascending, +Inf implied) on first use.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.get(name, help, KindHistogram, labels)
	r.mu.Lock()
	if s.hist == nil {
		s.hist = &histState{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
	}
	r.mu.Unlock()
	return &Histogram{s}
}

// Counter is a monotone integer metric.
type Counter struct{ s *series }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (must be >= 0).
func (c *Counter) Add(delta int64) {
	for {
		old := c.s.bits.Load()
		v := math.Float64frombits(old) + float64(delta)
		if c.s.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return int64(math.Float64frombits(c.s.bits.Load())) }

// Gauge is a settable instantaneous value.
type Gauge struct{ s *series }

// Set stores v.
func (g *Gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.s.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.s.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// SetMax raises the gauge to v if v exceeds the current value (running
// maxima like the largest coalesced batch).
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.s.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.s.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.bits.Load()) }

// Histogram is a fixed-bucket distribution metric.
type Histogram struct{ s *series }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	st := h.s.hist
	i := sort.SearchFloat64s(st.bounds, v)
	st.counts[i].Add(1)
	st.count.Add(1)
	for {
		old := st.sumBits.Load()
		if st.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := st.maxBits.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if st.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// HistSnapshot is a consistent-enough point-in-time histogram read for JSON
// reporting (scrapes under concurrent writes may be off by in-flight
// samples, which is fine for dashboards).
type HistSnapshot struct {
	Count int64
	Sum   float64
	Max   float64
	// Counts holds the per-bucket (non-cumulative) sample counts; the last
	// entry is the overflow (+Inf) bucket.
	Counts []int64
	// Bounds are the bucket upper bounds the histogram was created with.
	Bounds []float64
}

// Snapshot reads the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	st := h.s.hist
	snap := HistSnapshot{
		Count:  st.count.Load(),
		Sum:    math.Float64frombits(st.sumBits.Load()),
		Max:    math.Float64frombits(st.maxBits.Load()),
		Bounds: st.bounds,
		Counts: make([]int64, len(st.counts)),
	}
	for i := range st.counts {
		snap.Counts[i] = st.counts[i].Load()
	}
	return snap
}

// Quantile estimates the p-quantile (0 < p < 1) by linear interpolation
// inside the winning bucket, using the observed maximum as the overflow
// bucket's upper edge.
func (s HistSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(p * float64(s.Count))
	if target >= s.Count {
		target = s.Count - 1
	}
	var cum int64
	for i, c := range s.Counts {
		if cum+c > target {
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Max
			if i < len(s.Bounds) {
				hi = s.Bounds[i]
			}
			if hi < lo {
				hi = lo
			}
			frac := 0.5
			if c > 0 {
				frac = (float64(target-cum) + 0.5) / float64(c)
			}
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return s.Max
}

// labelSignature renders labels deterministically (sorted by key) for series
// identity and exposition.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}
