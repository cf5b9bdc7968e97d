package gateway

import (
	"sync"
	"time"

	"spcg/internal/obs"
)

// metrics is the gateway's typed metric surface (spcggw_*), on the same
// obs.Registry machinery as the daemon so one scrape format serves the whole
// fleet. Per-backend families are labeled with the backend's stable name.
type metrics struct {
	reg *obs.Registry

	requests   *obs.Counter
	affinity   *obs.Counter
	misses     *obs.Counter
	spills     *obs.Counter
	failovers  *obs.Counter
	retries    *obs.Counter
	shed       *obs.Counter
	unroutable *obs.Counter
	dedupIDs   *obs.Counter

	probeFailures *obs.Counter
	panics        *obs.Counter

	alive      *obs.Gauge
	dead       *obs.Gauge
	ringSize   *obs.Gauge
	routedJobs *obs.Gauge

	mu         sync.Mutex
	backendReq map[string]*obs.Counter
	backendErr map[string]*obs.Counter
	backendLat map[string]*obs.Histogram
	ringShare  map[string]*obs.Gauge
}

func newMetrics(start time.Time) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:        reg,
		backendReq: map[string]*obs.Counter{},
		backendErr: map[string]*obs.Counter{},
		backendLat: map[string]*obs.Histogram{},
		ringShare:  map[string]*obs.Gauge{},
	}
	m.requests = reg.Counter("spcggw_requests_total", "Client requests accepted for routing (all proxied routes).")
	m.affinity = reg.Counter("spcggw_affinity_hits_total", "Solve-path requests served by their ring-primary (affinity) backend.")
	m.misses = reg.Counter("spcggw_affinity_misses_total", "Solve-path requests served by a non-primary backend (spill or failover).")
	m.spills = reg.Counter("spcggw_spills_total", "Requests moved to the next ring replica because the primary was saturated (429).")
	m.failovers = reg.Counter("spcggw_failovers_total", "Requests retried on a different backend after a transport failure or retryable 5xx.")
	m.retries = reg.Counter("spcggw_retries_total", "Extra backend attempts beyond each request's first (spills + failovers + backoff retries).")
	m.shed = reg.Counter("spcggw_shed_total", "429 responses propagated to clients after the spill budget was exhausted.")
	m.unroutable = reg.Counter("spcggw_unroutable_total", "Requests refused with 503 because no routable backend existed.")
	m.dedupIDs = reg.Counter("spcggw_request_ids_assigned_total", "Solve requests that arrived without a request_id and were assigned one for idempotent retry.")
	m.probeFailures = reg.Counter("spcggw_probe_failures_total", "Health probes that failed (transport error or unexpected status).")
	m.panics = reg.Counter("spcggw_panics_total", "Panics recovered in gateway background goroutines (probe loop, probe fan-out).")
	m.alive = reg.Gauge("spcggw_backends_alive", "Backends currently routable (alive or degraded).")
	m.dead = reg.Gauge("spcggw_backends_dead", "Backends currently off the ring (dead or draining).")
	m.ringSize = reg.Gauge("spcggw_ring_backends", "Backends currently holding arcs on the hash ring.")
	m.routedJobs = reg.Gauge("spcggw_job_routes", "Async job-id routes currently remembered for /jobs polling.")
	reg.GaugeFunc("spcggw_uptime_seconds", "Seconds since the gateway started.",
		func() float64 { return time.Since(start).Seconds() })
	return m
}

// forBackend returns the labeled per-backend instruments, creating them on
// first use.
func (m *metrics) forBackend(name string) (*obs.Counter, *obs.Counter, *obs.Histogram) {
	m.mu.Lock()
	defer m.mu.Unlock()
	req := m.backendReq[name]
	if req == nil {
		l := obs.L("backend", name)
		req = m.reg.Counter("spcggw_backend_requests_total", "Requests forwarded, by backend.", l)
		m.backendReq[name] = req
		m.backendErr[name] = m.reg.Counter("spcggw_backend_errors_total", "Transport failures and 5xx responses, by backend.", l)
		m.backendLat[name] = m.reg.Histogram("spcggw_backend_latency_seconds", "Backend round-trip latency, by backend.", obs.LatencyBuckets, l)
	}
	return req, m.backendErr[name], m.backendLat[name]
}

// refreshMembership recomputes the membership gauges and per-backend ring
// shares after any state or ring change.
func (m *metrics) refreshMembership(g *Gateway) {
	var alive, dead float64
	for _, b := range g.backends {
		if b.getState().routable() {
			alive++
		} else {
			dead++
		}
	}
	m.alive.Set(alive)
	m.dead.Set(dead)
	m.ringSize.Set(float64(g.ring.members()))
	shares := g.ring.shares()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range g.backends {
		gauge := m.ringShare[b.name]
		if gauge == nil {
			gauge = m.reg.Gauge("spcggw_ring_share", "Fraction of the hash circle owned, by backend (0 while off the ring).", obs.L("backend", b.name))
			m.ringShare[b.name] = gauge
		}
		gauge.Set(shares[b.name])
	}
}

// BackendSnapshot is the per-backend block of the JSON metrics view.
type BackendSnapshot struct {
	State     string  `json:"state"`
	Requests  int64   `json:"requests_total"`
	Errors    int64   `json:"errors_total"`
	RingShare float64 `json:"ring_share"`
	MeanMS    float64 `json:"mean_ms"`
	P95MS     float64 `json:"p95_ms"`
}

// Snapshot is the structured JSON document served at /metrics?format=json.
type Snapshot struct {
	UptimeS       float64 `json:"uptime_s"`
	Requests      int64   `json:"requests_total"`
	AffinityHits  int64   `json:"affinity_hits_total"`
	AffinityMiss  int64   `json:"affinity_misses_total"`
	Spills        int64   `json:"spills_total"`
	Failovers     int64   `json:"failovers_total"`
	Retries       int64   `json:"retries_total"`
	Shed          int64   `json:"shed_total"`
	Unroutable    int64   `json:"unroutable_total"`
	ProbeFailures int64   `json:"probe_failures_total"`
	BackendsAlive int     `json:"backends_alive"`
	BackendsDead  int     `json:"backends_dead"`

	// AffinityRate is hits/(hits+misses); 0 before any solve-path request.
	AffinityRate float64 `json:"affinity_rate"`

	Backends map[string]BackendSnapshot `json:"backends"`
}

func (g *Gateway) snapshot() Snapshot {
	m := g.met
	s := Snapshot{
		UptimeS:       time.Since(g.start).Seconds(),
		Requests:      m.requests.Value(),
		AffinityHits:  m.affinity.Value(),
		AffinityMiss:  m.misses.Value(),
		Spills:        m.spills.Value(),
		Failovers:     m.failovers.Value(),
		Retries:       m.retries.Value(),
		Shed:          m.shed.Value(),
		Unroutable:    m.unroutable.Value(),
		ProbeFailures: m.probeFailures.Value(),
		BackendsAlive: int(m.alive.Value()),
		BackendsDead:  int(m.dead.Value()),
		Backends:      map[string]BackendSnapshot{},
	}
	if tot := s.AffinityHits + s.AffinityMiss; tot > 0 {
		s.AffinityRate = float64(s.AffinityHits) / float64(tot)
	}
	shares := g.ring.shares()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range g.backends {
		bs := BackendSnapshot{State: b.getState().String(), RingShare: shares[b.name]}
		if c := m.backendReq[b.name]; c != nil {
			bs.Requests = c.Value()
		}
		if c := m.backendErr[b.name]; c != nil {
			bs.Errors = c.Value()
		}
		if h := m.backendLat[b.name]; h != nil {
			hs := h.Snapshot()
			if hs.Count > 0 {
				bs.MeanMS = 1000 * hs.Sum / float64(hs.Count)
				bs.P95MS = 1000 * hs.Quantile(0.95)
			}
		}
		s.Backends[b.name] = bs
	}
	return s
}
