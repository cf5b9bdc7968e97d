// Package gateway implements spcggw, the horizontal scale-out tier in front
// of a pool of spcgd backends. It consistent-hash routes solve-path requests
// by matrix fingerprint so each matrix's expensive per-backend state — setup
// cache (preconditioner + Ritz spectrum), the registry entry (the built
// matrix, its storage-selector probe and SELL conversion) and autotune
// decisions — stays warm on one backend instead of being rebuilt across the
// whole fleet. This is the
// serving-side analogue of the paper's scaling argument: remove the global
// synchronization (here, redundant per-matrix setup everywhere) and let each
// shard do local work.
//
// Routing semantics:
//
//   - affinity: a request for matrix M goes to the ring-primary backend for
//     M's content fingerprint (resolved once per matrix via the backends'
//     GET /affinity/{matrix} and cached);
//   - bounded spill: when the primary sheds load (429), the request moves to
//     the next replica on the ring, at most SpillDepth hops; past that the
//     429 and its Retry-After propagate to the client — backpressure is
//     forwarded, never amplified into a retry storm;
//   - failover: transport failures and retryable 5xx (502/503) move the
//     request to the next replica with budgeted backoff; solve requests are
//     idempotent (the gateway stamps a request_id, and backends dedup on
//     it), so a retry can never double-run a job on one backend;
//   - membership: a periodic /healthz probe drives each backend through
//     alive/degraded/draining/dead; only alive and degraded backends hold
//     ring arcs, and consistent hashing moves ~1/N of keys when one of N
//     backends drops — every other matrix keeps its warm backend.
package gateway

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spcg/internal/obs"
	"spcg/internal/resilience"
)

// Config sizes the gateway. Zero values get sensible defaults; Backends is
// required.
type Config struct {
	// Backends are the spcgd base URLs fronted by this gateway.
	Backends []string
	// VNodes is the number of hash-ring points per backend (default 64).
	VNodes int
	// ProbeInterval is the health-probe period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe (default 2s).
	ProbeTimeout time.Duration
	// DeadAfter is the consecutive probe-failure count that marks a backend
	// dead (default 2). Data-path connection failures kill immediately.
	DeadAfter int
	// Retries is the failover budget: extra backends tried after a transport
	// failure or retryable 5xx (default 2).
	Retries int
	// SpillDepth is the saturation budget: replicas tried after a 429 before
	// the backpressure propagates to the client (default 1).
	SpillDepth int
	// RetryBackoff is the base delay between failover attempts, doubled per
	// attempt (default 50ms).
	RetryBackoff time.Duration
	// AttemptTimeout bounds one backend round trip, including a synchronous
	// solve (default 5m).
	AttemptTimeout time.Duration
	// JobRoutes bounds the job-id → backend map for /jobs polling
	// (default 4096, LRU).
	JobRoutes int
	// AffinityEntries bounds the matrix → fingerprint resolution cache
	// (default 4096, LRU).
	AffinityEntries int
	// Client overrides the backend HTTP client (tests).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.VNodes < 1 {
		c.VNodes = 64
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.DeadAfter < 1 {
		c.DeadAfter = 2
	}
	if c.Retries <= 0 {
		c.Retries = 2
	}
	if c.SpillDepth < 1 {
		c.SpillDepth = 1
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 5 * time.Minute
	}
	if c.JobRoutes < 1 {
		c.JobRoutes = 4096
	}
	if c.AffinityEntries < 1 {
		c.AffinityEntries = 4096
	}
	return c
}

// Gateway is the routing tier. Create with New, serve via Handler, stop with
// Close.
type Gateway struct {
	cfg      Config
	client   *http.Client
	ring     *ring
	backends []*backend
	byName   map[string]*backend
	met      *metrics
	start    time.Time

	affinity *lruMap // matrix name -> fingerprint (stored as uint64 in string form)
	jobs     *lruMap // job id -> backend name

	reqSeq atomic.Uint64
	rr     atomic.Uint64 // round-robin cursor for non-affinity routes

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New builds the gateway, runs one synchronous membership probe so the ring
// is populated before the first request, and starts the probe loop.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	g := &Gateway{
		cfg:      cfg,
		ring:     newRing(cfg.VNodes),
		byName:   map[string]*backend{},
		met:      newMetrics(time.Now()),
		start:    time.Now(),
		affinity: newLRUMap(cfg.AffinityEntries),
		jobs:     newLRUMap(cfg.JobRoutes),
		stop:     make(chan struct{}),
	}
	g.client = cfg.Client
	if g.client == nil {
		g.client = &http.Client{}
	}
	for _, raw := range cfg.Backends {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		if _, err := url.Parse(u); err != nil {
			return nil, fmt.Errorf("gateway: bad backend URL %q: %v", raw, err)
		}
		name := strings.TrimPrefix(strings.TrimPrefix(u, "http://"), "https://")
		if _, dup := g.byName[name]; dup {
			return nil, fmt.Errorf("gateway: duplicate backend %q", name)
		}
		b := &backend{name: name, url: u, state: Alive}
		g.backends = append(g.backends, b)
		g.byName[name] = b
		g.ring.add(name)
	}
	if len(g.backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	g.probeOnce()
	g.wg.Add(1)
	go func() {
		// probeLoop's own defer releases g.wg during the unwind, so Close
		// never hangs even if the loop dies; the counter records that the
		// gateway lost health probing.
		if err := resilience.Safe(g.probeLoop); err != nil {
			g.met.panics.Inc()
		}
	}()
	return g, nil
}

// Close stops the probe loop. In-flight proxied requests complete normally.
func (g *Gateway) Close() {
	g.once.Do(func() { close(g.stop) })
	g.wg.Wait()
}

// Registry exposes the gateway's metric registry (Prometheus exposition and
// the docs-coverage check read it).
func (g *Gateway) Registry() *obs.Registry { return g.met.reg }

// Snapshot returns the structured JSON metrics view.
func (g *Gateway) Snapshot() Snapshot { return g.snapshot() }

// route is one served pattern; Handler registers exactly this table, and the
// docs-coverage test asserts every pattern appears in docs/API.md.
type route struct {
	pattern string
	handler func(*Gateway) http.HandlerFunc
}

var routes = []route{
	{"POST /solve", func(g *Gateway) http.HandlerFunc { return g.handleSolve }},
	{"GET /jobs/{id}", func(g *Gateway) http.HandlerFunc { return g.handleJob }},
	{"POST /jobs/{id}/cancel", func(g *Gateway) http.HandlerFunc { return g.handleJob }},
	{"GET /matrices", func(g *Gateway) http.HandlerFunc { return g.handleAnyBackend }},
	{"POST /tune", func(g *Gateway) http.HandlerFunc { return g.handleTune }},
	{"GET /tune/{matrix}", func(g *Gateway) http.HandlerFunc { return g.handleTuneGet }},
	{"GET /affinity/{matrix}", func(g *Gateway) http.HandlerFunc { return g.handleAffinity }},
	{"GET /backends", func(g *Gateway) http.HandlerFunc { return g.handleBackends }},
	{"GET /metrics", func(g *Gateway) http.HandlerFunc { return g.handleMetrics }},
	{"GET /healthz", func(g *Gateway) http.HandlerFunc { return g.handleHealthz }},
}

// Routes lists the served "METHOD /path" patterns (docs-coverage test).
func Routes() []string {
	out := make([]string, len(routes))
	for i, r := range routes {
		out[i] = r.pattern
	}
	return out
}

// Handler returns the gateway's HTTP mux; see Routes for the surface.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range routes {
		mux.HandleFunc(r.pattern, r.handler(g))
	}
	return mux
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleSolve routes POST /solve by matrix affinity, stamping a request_id
// when the client did not provide one so retries and failovers stay
// idempotent on each backend.
func (g *Gateway) handleSolve(w http.ResponseWriter, r *http.Request) {
	g.met.requests.Inc()
	var body map[string]any
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	matrix, _ := body["matrix"].(string)
	if strings.TrimSpace(matrix) == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "missing matrix"})
		return
	}
	if id, _ := body["request_id"].(string); id == "" {
		body["request_id"] = g.newRequestID()
		g.met.dedupIDs.Inc()
	}
	payload, err := json.Marshal(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	g.routeByMatrix(w, r, http.MethodPost, "/solve", matrix, payload)
}

// handleTune routes POST /tune to the matrix's affinity backend, so the
// tuning run (and the stored decision) lands where the matrix's solves go.
func (g *Gateway) handleTune(w http.ResponseWriter, r *http.Request) {
	g.met.requests.Inc()
	var body struct {
		Matrix string `json:"matrix"`
	}
	raw, err := readAll(r.Body, 1<<20)
	if err != nil || json.Unmarshal(raw, &body) != nil || strings.TrimSpace(body.Matrix) == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: need {\"matrix\": ...}"})
		return
	}
	g.routeByMatrix(w, r, http.MethodPost, "/tune", body.Matrix, raw)
}

// handleTuneGet routes GET /tune/{matrix} to the affinity backend.
func (g *Gateway) handleTuneGet(w http.ResponseWriter, r *http.Request) {
	g.met.requests.Inc()
	matrix := r.PathValue("matrix")
	g.routeByMatrix(w, r, http.MethodGet, "/tune/"+url.PathEscape(matrix), matrix, nil)
}

// handleAffinity reports the gateway's routing decision for a matrix: the
// fingerprint and the replica walk. It answers from local state (resolving
// the fingerprint through a backend only on first sight of the matrix).
func (g *Gateway) handleAffinity(w http.ResponseWriter, r *http.Request) {
	g.met.requests.Inc()
	matrix := r.PathValue("matrix")
	fp, rerr := g.fingerprint(r.Context(), matrix)
	if rerr != nil {
		rerr.write(w)
		return
	}
	replicas := g.ring.lookup(fp, 1+g.cfg.Retries)
	resp := map[string]any{
		"matrix":      matrix,
		"fingerprint": strconv.FormatUint(fp, 10),
		"replicas":    replicas,
	}
	if len(replicas) > 0 {
		resp["backend"] = replicas[0]
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJob forwards job polling/cancel to the backend that ran the solve,
// using the job-id route learned from that solve's response.
func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	g.met.requests.Inc()
	id := r.PathValue("id")
	name, ok := g.jobs.get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job (not routed through this gateway, or its route was evicted)"})
		return
	}
	b := g.byName[name]
	path := "/jobs/" + url.PathEscape(id)
	if strings.HasSuffix(r.URL.Path, "/cancel") {
		path += "/cancel"
	}
	resp, err := g.attempt(r.Context(), b, r.Method, path, nil)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, errorBody{Error: fmt.Sprintf("backend %s: %v", b.name, err)})
		return
	}
	g.forward(w, resp)
}

// handleAnyBackend forwards a read-only route to any routable backend,
// round-robin.
func (g *Gateway) handleAnyBackend(w http.ResponseWriter, r *http.Request) {
	g.met.requests.Inc()
	tried := 0
	n := len(g.backends)
	for i := 0; i < n && tried <= g.cfg.Retries; i++ {
		b := g.backends[(int(g.rr.Add(1))+i)%n]
		if !b.getState().routable() {
			continue
		}
		tried++
		resp, err := g.attempt(r.Context(), b, r.Method, r.URL.Path, nil)
		if err != nil {
			continue
		}
		g.forward(w, resp)
		return
	}
	g.met.unroutable.Inc()
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no routable backend"})
}

// handleBackends serves the membership view.
func (g *Gateway) handleBackends(w http.ResponseWriter, _ *http.Request) {
	g.met.requests.Inc()
	shares := g.ring.shares()
	out := make([]BackendStatus, 0, len(g.backends))
	for _, b := range g.backends {
		b.mu.Lock()
		st := BackendStatus{
			Name:      b.name,
			URL:       b.url,
			State:     b.state.String(),
			RingShare: shares[b.name],
			LastError: b.lastErr,
		}
		b.mu.Unlock()
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, map[string]any{"backends": out, "ring_members": g.ring.members()})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, g.snapshot())
		return
	}
	w.Header().Set("Content-Type", obs.TextContentType)
	g.met.reg.WritePrometheus(w)
}

// handleHealthz reports gateway liveness: 200 while at least one backend is
// routable, 503 + Retry-After otherwise (all backends dead or draining).
func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	alive := 0
	for _, b := range g.backends {
		if b.getState().routable() {
			alive++
		}
	}
	body := map[string]any{"status": "ok", "backends_alive": alive, "backends": len(g.backends)}
	if alive == 0 {
		body["status"] = "unroutable"
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// routeError is a routing failure ready to be written to the client.
type routeError struct {
	code       int
	msg        string
	retryAfter string
}

func (e *routeError) write(w http.ResponseWriter) {
	if e.retryAfter != "" {
		w.Header().Set("Retry-After", e.retryAfter)
	}
	writeJSON(w, e.code, errorBody{Error: e.msg})
}

// fingerprint resolves a matrix name to its content fingerprint, caching the
// answer. First sight asks a backend's GET /affinity/{matrix} (chosen by
// name hash, so the one-time matrix build lands on a backend the name would
// route to anyway); after that, routing is purely local arithmetic.
func (g *Gateway) fingerprint(ctx context.Context, matrix string) (uint64, *routeError) {
	name := strings.TrimSpace(matrix)
	if name == "" {
		return 0, &routeError{code: http.StatusBadRequest, msg: "missing matrix"}
	}
	if v, ok := g.affinity.get(name); ok {
		fp, _ := strconv.ParseUint(v, 10, 64)
		return fp, nil
	}
	candidates := g.ring.lookup(nameHash(name), 1+g.cfg.Retries)
	if len(candidates) == 0 {
		g.met.unroutable.Inc()
		return 0, &routeError{code: http.StatusServiceUnavailable, msg: "no routable backend", retryAfter: "1"}
	}
	var lastErr string
	for _, cand := range candidates {
		b := g.byName[cand]
		resp, err := g.attempt(ctx, b, http.MethodGet, "/affinity/"+url.PathEscape(name), nil)
		if err != nil {
			lastErr = err.Error()
			continue
		}
		switch {
		case resp.code == http.StatusOK:
			var body struct {
				Fingerprint string `json:"fingerprint"`
			}
			if err := json.Unmarshal(resp.body, &body); err != nil {
				lastErr = err.Error()
				continue
			}
			fp, err := strconv.ParseUint(body.Fingerprint, 10, 64)
			if err != nil {
				lastErr = "bad fingerprint " + body.Fingerprint
				continue
			}
			g.affinity.put(name, body.Fingerprint)
			return fp, nil
		case resp.code >= 400 && resp.code < 500:
			// The backend rejected the matrix itself (unknown name, over the
			// dimension limit): a client error, not a routing failure.
			return 0, &routeError{code: resp.code, msg: string(resp.body)}
		default:
			lastErr = fmt.Sprintf("backend %s: HTTP %d", b.name, resp.code)
		}
	}
	return 0, &routeError{code: http.StatusBadGateway, msg: "affinity resolution failed: " + lastErr}
}

// routeByMatrix is the affinity data path: resolve the fingerprint, walk the
// replica list with spill/failover budgets, forward the winning response.
func (g *Gateway) routeByMatrix(w http.ResponseWriter, r *http.Request, method, path, matrix string, body []byte) {
	fp, rerr := g.fingerprint(r.Context(), matrix)
	if rerr != nil {
		rerr.write(w)
		return
	}
	// The walk may need primary + failover budget + spill budget backends.
	replicas := g.ring.lookup(fp, 1+g.cfg.Retries+g.cfg.SpillDepth)
	if len(replicas) == 0 {
		g.met.unroutable.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no routable backend"})
		return
	}
	var (
		spills    int
		failovers int
		last429   *backendResponse
		lastErr   string
	)
	for i, name := range replicas {
		if spills > g.cfg.SpillDepth || failovers > g.cfg.Retries {
			break
		}
		b := g.byName[name]
		if i > 0 {
			g.met.retries.Inc()
			// Budgeted backoff before touching the next replica: doubles per
			// extra attempt, and aborts if the client went away meanwhile.
			if !sleepCtx(r.Context(), g.cfg.RetryBackoff<<uint(i-1)) {
				writeJSON(w, http.StatusRequestTimeout, errorBody{Error: "client gone during failover"})
				return
			}
		}
		resp, err := g.attempt(r.Context(), b, method, path, body)
		if err != nil {
			if r.Context().Err() != nil {
				writeJSON(w, http.StatusRequestTimeout, errorBody{Error: "client gone: " + err.Error()})
				return
			}
			g.met.failovers.Inc()
			failovers++
			lastErr = fmt.Sprintf("backend %s: %v", b.name, err)
			continue
		}
		switch {
		case resp.code == http.StatusTooManyRequests:
			g.met.spills.Inc()
			spills++
			last429 = resp
			continue
		case resp.code == http.StatusBadGateway || resp.code == http.StatusServiceUnavailable:
			// Draining or proxy-level failure: the job never ran; move on.
			g.met.failovers.Inc()
			failovers++
			lastErr = fmt.Sprintf("backend %s: HTTP %d", b.name, resp.code)
			continue
		default:
			// A served response (including 400/404/500/504: those are answers
			// about the request, not about the backend).
			if i == 0 {
				g.met.affinity.Inc()
			} else {
				g.met.misses.Inc()
			}
			if path == "/solve" {
				g.rememberJob(resp, b)
			}
			g.forward(w, resp)
			return
		}
	}
	if last429 != nil {
		// Every replica in the spill budget shed: propagate the backpressure
		// with the backend's own Retry-After so clients slow down.
		g.met.shed.Inc()
		g.forward(w, last429)
		return
	}
	g.met.unroutable.Inc()
	if lastErr == "" {
		lastErr = "no routable backend"
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: lastErr})
}

// backendResponse is one buffered backend reply. Buffering (responses are
// small JSON documents) is what makes failover safe: nothing is forwarded to
// the client until an attempt has fully succeeded.
type backendResponse struct {
	code       int
	body       []byte
	retryAfter string
}

// attempt performs one backend round trip, recording per-backend metrics. A
// transport failure that is not the client's own cancellation marks the
// backend dead immediately — the prober resurrects it when /healthz answers
// again.
func (g *Gateway) attempt(ctx context.Context, b *backend, method, path string, body []byte) (*backendResponse, error) {
	actx, cancel := context.WithTimeout(ctx, g.cfg.AttemptTimeout)
	defer cancel()
	var rd *strings.Reader
	if body != nil {
		rd = strings.NewReader(string(body))
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequestWithContext(actx, method, b.url+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	reqs, errsC, lat := g.met.forBackend(b.name)
	reqs.Inc()
	t0 := time.Now()
	resp, err := g.client.Do(req)
	lat.Observe(time.Since(t0).Seconds())
	if err != nil {
		errsC.Inc()
		if ctx.Err() == nil && actx.Err() == nil {
			// A genuine transport failure (refused, reset, mid-response EOF) —
			// not our own timeout or the client hanging up.
			g.markDeadNow(b, err.Error())
		}
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := readAll(resp.Body, 16<<20)
	if err != nil {
		errsC.Inc()
		if ctx.Err() == nil && actx.Err() == nil {
			g.markDeadNow(b, err.Error())
		}
		return nil, err
	}
	if resp.StatusCode >= 500 {
		errsC.Inc()
	}
	return &backendResponse{
		code:       resp.StatusCode,
		body:       buf,
		retryAfter: resp.Header.Get("Retry-After"),
	}, nil
}

// forward writes a buffered backend response to the client.
func (g *Gateway) forward(w http.ResponseWriter, resp *backendResponse) {
	if resp.retryAfter != "" {
		w.Header().Set("Retry-After", resp.retryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.code)
	_, _ = w.Write(resp.body)
}

// rememberJob records the job-id → backend route from a solve response so
// /jobs polling and cancellation reach the right pool member.
func (g *Gateway) rememberJob(resp *backendResponse, b *backend) {
	var doc struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(resp.body, &doc) == nil && doc.ID != "" {
		g.jobs.put(doc.ID, b.name)
		g.met.jobRoutes.Set(float64(g.jobs.len()))
	}
}

// newRequestID mints a process-unique idempotency key for a solve request
// that arrived without one.
func (g *Gateway) newRequestID() string {
	return "gw-" + strconv.FormatInt(g.start.UnixNano(), 36) + "-" + strconv.FormatUint(g.reqSeq.Add(1), 36)
}

// nameHash routes first-sight affinity resolution by matrix name (the
// fingerprint is not known yet).
func nameHash(name string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// sleepCtx sleeps d or until ctx is done; reports whether the sleep ran out.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// readAll reads up to max bytes, erroring beyond it (a backend response that
// large indicates a bug, not a solve result).
func readAll(r io.Reader, max int64) ([]byte, error) {
	out, err := io.ReadAll(io.LimitReader(r, max+1))
	if err != nil {
		return out, err
	}
	if int64(len(out)) > max {
		return nil, fmt.Errorf("response exceeds %d bytes", max)
	}
	return out, nil
}

// lruMap is a small bounded string→string map with LRU eviction (affinity
// resolutions and job routes).
type lruMap struct {
	mu    sync.Mutex
	max   int
	ll    *list.List
	items map[string]*list.Element
}

type lruEntry struct{ k, v string }

func newLRUMap(max int) *lruMap {
	return &lruMap{max: max, ll: list.New(), items: map[string]*list.Element{}}
}

func (m *lruMap) get(k string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[k]
	if !ok {
		return "", false
	}
	m.ll.MoveToFront(el)
	return el.Value.(*lruEntry).v, true
}

func (m *lruMap) put(k, v string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[k]; ok {
		el.Value.(*lruEntry).v = v
		m.ll.MoveToFront(el)
		return
	}
	m.items[k] = m.ll.PushFront(&lruEntry{k: k, v: v})
	for m.ll.Len() > m.max {
		oldest := m.ll.Back()
		m.ll.Remove(oldest)
		delete(m.items, oldest.Value.(*lruEntry).k)
	}
}

func (m *lruMap) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}
