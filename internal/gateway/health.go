package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"spcg/internal/resilience"
)

// BackendState is the gateway's view of one backend's availability.
type BackendState int

// Backend availability states. Alive and Degraded backends stay on the ring
// (a degraded spcgd still serves traffic — it is shedding admissions, not
// refusing them all); Draining and Dead backends are removed, so new
// requests route around them until a probe sees them healthy again.
const (
	Alive BackendState = iota
	Degraded
	Draining
	Dead
)

// String returns the lowercase state name.
func (s BackendState) String() string {
	switch s {
	case Alive:
		return "alive"
	case Degraded:
		return "degraded"
	case Draining:
		return "draining"
	case Dead:
		return "dead"
	}
	return "unknown"
}

// routable reports whether new work may be sent to a backend in this state.
func (s BackendState) routable() bool { return s == Alive || s == Degraded }

// backend is one pool member.
type backend struct {
	name string // stable short name ("b0", "b1", ...) used on the ring and in metrics
	url  string // base URL, no trailing slash

	mu       sync.Mutex
	state    BackendState
	failures int // consecutive probe/transport failures
	lastErr  string

	// inflight counts this gateway's attempts on the backend that have not
	// returned yet: the load a solve's first hop is balanced on.
	inflight atomic.Int64
}

func (b *backend) getState() BackendState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// BackendStatus is the JSON document for one backend at GET /backends.
type BackendStatus struct {
	Name      string  `json:"name"`
	URL       string  `json:"url"`
	State     string  `json:"state"`
	RingShare float64 `json:"ring_share"` // fraction of the hash circle owned; 0 when off the ring
	LastError string  `json:"last_error,omitempty"`
}

// probeLoop drives periodic health probes until stop closes.
func (g *Gateway) probeLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.probeOnce()
		}
	}
}

// probeOnce probes every backend's /healthz concurrently and applies state
// transitions. Exported behavior is reachable through New (which runs a first
// synchronous probe) and the loop; tests call it directly to advance time.
func (g *Gateway) probeOnce() {
	var wg sync.WaitGroup
	for _, b := range g.backends {
		wg.Add(1)
		go func(b *backend) {
			// Safe first so a panicking probe still releases the WaitGroup
			// (the deferred Done runs during the unwind) instead of wedging
			// probeOnce — and with it the whole probe loop — forever.
			if err := resilience.Safe(func() {
				defer wg.Done()
				g.probe(b)
			}); err != nil {
				g.met.panics.Inc()
			}
		}(b)
	}
	wg.Wait()
	g.met.refreshMembership(g)
}

// probe evaluates one backend: 200 ⇒ alive (or degraded, read from the
// body's health state machine), 503 ⇒ draining, transport failure ⇒ dead
// after deadAfter consecutive misses. Recovery is immediate on the first
// healthy probe — a restarted backend rejoins the ring with cold caches and
// the ring hands it exactly its old arc back.
func (g *Gateway) probe(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		g.markFailure(b, err.Error())
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.markFailure(b, err.Error())
		return
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	switch {
	case resp.StatusCode == http.StatusOK && body.Status == "degraded":
		g.setState(b, Degraded, "")
	case resp.StatusCode == http.StatusOK:
		g.setState(b, Alive, "")
	case resp.StatusCode == http.StatusServiceUnavailable:
		g.setState(b, Draining, "backend draining")
	default:
		g.markFailure(b, resp.Status)
	}
}

// markFailure records one probe/transport failure, killing the backend once
// deadAfter consecutive failures accumulate.
func (g *Gateway) markFailure(b *backend, cause string) {
	g.met.probeFailures.Inc()
	b.mu.Lock()
	b.failures++
	b.lastErr = cause
	dead := b.failures >= deadAfter
	b.mu.Unlock()
	if dead {
		g.setState(b, Dead, cause)
	}
}

// markDeadNow kills a backend immediately (the data path saw a transport
// error, e.g. connection refused after a crash — no reason to wait for the
// prober to accumulate misses).
func (g *Gateway) markDeadNow(b *backend, cause string) {
	g.setState(b, Dead, cause)
}

// setState applies a state transition and keeps the ring in sync with
// routability. Recovery resets the failure count.
func (g *Gateway) setState(b *backend, next BackendState, cause string) {
	b.mu.Lock()
	prev := b.state
	b.state = next
	if next.routable() {
		b.failures = 0
		b.lastErr = ""
	} else if cause != "" {
		b.lastErr = cause
	}
	b.mu.Unlock()
	if prev.routable() == next.routable() {
		return
	}
	if next.routable() {
		g.ring.add(b.name)
	} else {
		g.ring.remove(b.name)
	}
	g.met.refreshMembership(g)
}
