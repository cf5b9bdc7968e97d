// Package gateway implements spcggw, the horizontal scale-out tier in front
// of a pool of spcgd backends. It consistent-hash routes solve-path requests
// by matrix key so each matrix's expensive per-backend state — setup
// cache (preconditioners), the registry entry (the built matrix and its
// Ritz spectra) and autotune decisions — stays warm on one backend instead of being rebuilt across the
// whole fleet. This is the
// serving-side analogue of the paper's scaling argument: remove the global
// synchronization (here, redundant per-matrix setup everywhere) and let each
// shard do local work.
//
// Routing semantics:
//
//   - affinity: a request for matrix M belongs to the ring-primary backend
//     (the owner) for M's key (suite.Key: a suite name, or the canonical
//     generator spec, so every spelling of one spec has one owner). The key
//     is computed locally: no backend is asked before the request's own hop,
//     and an unknown or malformed name is a 400 that reaches no backend;
//   - load routing: a synchronous POST /solve goes to the less loaded of the
//     first two distinct replicas, by the attempts this gateway has in
//     flight on each, with ties going to the owner. A solve leaves its owner
//     only while the owner is busy and the successor is not, so no request
//     queues behind another while the second replica idles, and every
//     matrix's state lives on at most two backends for any pool size. Async
//     solves (whose attempt returns at admission), POST /tune and
//     GET /tune/{matrix} go to the owner;
//   - sticky retries: a client-supplied request_id goes where its first
//     attempt went, so a retry meets the running job and that backend's
//     dedup instead of running the solve again elsewhere;
//   - bounded spill: when the first backend sheds load (429), the request
//     moves to the next replica on the ring, at most spillDepth hops; past
//     that the 429 and its Retry-After propagate to the client —
//     backpressure is forwarded, never amplified into a retry storm;
//   - failover: transport failures and retryable 5xx (502/503) move the
//     request to the next replica with budgeted backoff; solve requests are
//     idempotent (the gateway stamps a request_id, and backends dedup on
//     it), so a retry can never double-run a job on one backend;
//   - membership: a periodic /healthz probe drives each backend through
//     alive/degraded/draining/dead; only alive and degraded backends hold
//     ring arcs, and consistent hashing moves ~1/N of keys when one of N
//     backends drops — every other matrix keeps its warm backends.
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
	"spcg/internal/suite"
)

// Config names the gateway's backends. Backends is required.
type Config struct {
	// Backends are the spcgd base URLs fronted by this gateway.
	Backends []string
	// Client overrides the backend HTTP client (tests).
	Client *http.Client

	// probeInterval and retryBackoff replace probeEvery and backoffBase
	// when set; the package's tests shorten or stretch them.
	probeInterval time.Duration
	retryBackoff  time.Duration
}

// The gateway's fixed sizes. Nothing deployed sets them otherwise, and the
// benchmark's serve workloads and the pinned ring run on exactly these.
const (
	// vnodes is the number of hash-ring points per backend: enough to keep
	// each backend's arc share within a few percent of 1/N.
	vnodes = 64
	// probeEvery is the /healthz probe period.
	probeEvery = time.Second
	// probeTimeout bounds one /healthz probe.
	probeTimeout = 2 * time.Second
	// deadAfter is the consecutive probe-failure count that marks a backend
	// dead. Data-path connection failures kill immediately.
	deadAfter = 2
	// retries is the failover budget: extra backends tried after a
	// transport failure or a retryable 5xx.
	retries = 2
	// spillDepth is the saturation budget: replicas tried after a 429
	// before the backpressure propagates to the client.
	spillDepth = 1
	// backoffBase is the delay before the first failover attempt, doubled
	// per attempt.
	backoffBase = 50 * time.Millisecond
	// attemptTimeout bounds one backend round trip, a synchronous solve
	// included.
	attemptTimeout = 5 * time.Minute
	// walkLen is the longest replica walk: the owner, the failover budget
	// and the spill budget.
	walkLen = 1 + retries + spillDepth
)

// WriteTimeout is the server write timeout that lets a proxied synchronous
// solve try every backend of its walk at the full attempt timeout, with a
// margin for the backoffs and the reply.
const WriteTimeout = walkLen*attemptTimeout + 30*time.Second

func (c Config) withDefaults() Config {
	if c.probeInterval <= 0 {
		c.probeInterval = probeEvery
	}
	if c.retryBackoff <= 0 {
		c.retryBackoff = backoffBase
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

	jobs *lruMap // job id -> backend name
	sent *lruMap // client request_id -> backend name its solve was sent to

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
		cfg:    cfg,
		ring:   newRing(vnodes),
		byName: map[string]*backend{},
		met:    newMetrics(time.Now()),
		start:  time.Now(),
		jobs:   newLRUMap(),
		sent:   newLRUMap(),
		stop:   make(chan struct{}),
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

// route is one served pattern; Handler registers exactly this table, and
// spcglint's metricdoc analyzer checks every pattern appears in docs/API.md.
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

// Handler returns the gateway's HTTP mux; see docs/API.md for the surface.
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

// handleSolve routes POST /solve by matrix affinity and load, stamping a
// request_id when the client did not provide one so retries and failovers
// stay idempotent on each backend.
func (g *Gateway) handleSolve(w http.ResponseWriter, r *http.Request) {
	g.met.requests.Inc()
	var body map[string]any
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	matrix, _ := body["matrix"].(string)
	async, _ := body["async"].(bool)
	hop := firstHop{balance: !async}
	if id, _ := body["request_id"].(string); id != "" {
		hop.requestID = id
	} else {
		body["request_id"] = g.newRequestID()
		g.met.dedupIDs.Inc()
	}
	payload, err := json.Marshal(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	g.routeByMatrix(w, r, http.MethodPost, "/solve", matrix, payload, hop)
}

// handleTune routes POST /tune to the matrix's affinity backend, so the
// tuning run (and the stored decision) lands where the matrix's solves go.
func (g *Gateway) handleTune(w http.ResponseWriter, r *http.Request) {
	g.met.requests.Inc()
	var body struct {
		Matrix string `json:"matrix"`
	}
	raw, err := readAll(r.Body, 1<<20)
	if err != nil || json.Unmarshal(raw, &body) != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: need {\"matrix\": ...}"})
		return
	}
	g.routeByMatrix(w, r, http.MethodPost, "/tune", body.Matrix, raw, firstHop{})
}

// handleTuneGet routes GET /tune/{matrix} to the affinity backend.
func (g *Gateway) handleTuneGet(w http.ResponseWriter, r *http.Request) {
	g.met.requests.Inc()
	matrix := r.PathValue("matrix")
	g.routeByMatrix(w, r, http.MethodGet, "/tune/"+url.PathEscape(matrix), matrix, nil, firstHop{})
}

// handleAffinity reports the gateway's routing decision for a matrix: its
// key and the replica walk routeByMatrix takes, from local state alone.
func (g *Gateway) handleAffinity(w http.ResponseWriter, r *http.Request) {
	g.met.requests.Inc()
	matrix := r.PathValue("matrix")
	key, err := suite.Key(matrix)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	replicas := g.walk(key)
	resp := map[string]any{
		"matrix":   matrix,
		"key":      key,
		"replicas": replicas,
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
	for i := 0; i < n && tried <= retries; i++ {
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

// firstHop is how a request picks the backend it tries first; the zero
// value sends it to the owner.
type firstHop struct {
	balance   bool   // the less loaded of the first two replicas, ties to the owner
	requestID string // a client-supplied idempotency key: its retries follow it
}

// first returns the backend a request tries first among the key's replicas
// (owner first). A client request_id seen before goes where it was
// sent then, while that backend is routable: the first attempt may still be
// running there, and only that backend's dedup can collapse the two.
func (g *Gateway) first(replicas []string, hop firstHop) string {
	pick := replicas[0]
	if hop.balance && len(replicas) > 1 && g.byName[replicas[1]].inflight.Load() < g.byName[pick].inflight.Load() {
		pick = replicas[1]
	}
	if hop.requestID != "" {
		if prev, seen := g.sent.claim(hop.requestID, pick); seen && g.byName[prev].getState().routable() {
			return prev
		}
	}
	if pick != replicas[0] {
		g.met.loadRouted.Inc()
	}
	return pick
}

// walk is the replica list a request for key may try, owner first: the
// primary, the failover budget and the spill budget.
func (g *Gateway) walk(key string) []string {
	return g.ring.lookup(nameHash(key), walkLen)
}

// routeByMatrix is the affinity data path: key the matrix, pick the first
// hop, walk the rest of the replica list with spill/failover budgets,
// forward the winning response.
func (g *Gateway) routeByMatrix(w http.ResponseWriter, r *http.Request, method, path, matrix string, body []byte, hop firstHop) {
	key, err := suite.Key(matrix)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	replicas := g.walk(key)
	if len(replicas) == 0 {
		g.met.unroutable.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no routable backend"})
		return
	}
	owner := replicas[0]
	if first := g.first(replicas, hop); first != owner {
		walk := []string{first}
		for _, name := range replicas {
			if name != first {
				walk = append(walk, name)
			}
		}
		replicas = walk
	}
	var (
		spills    int
		failovers int
		last429   *backendResponse
		lastErr   string
	)
	for i, name := range replicas {
		if spills > spillDepth || failovers > retries {
			break
		}
		b := g.byName[name]
		if i > 0 {
			g.met.retries.Inc()
			// Budgeted backoff before touching the next replica: doubles per
			// extra attempt, and aborts if the client went away meanwhile.
			if !sleepCtx(r.Context(), g.cfg.retryBackoff<<uint(i-1)) {
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
			if name == owner {
				g.met.affinity.Inc()
			} else {
				g.met.misses.Inc()
			}
			if hop.requestID != "" {
				g.sent.put(hop.requestID, name)
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
	actx, cancel := context.WithTimeout(ctx, attemptTimeout)
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
	b.inflight.Add(1)
	// In a closure, not deferred as a method value: that would link an
	// out-of-line atomic Add ahead of the solver kernels and move their
	// alignment, which alone moves solve_paper by several percent.
	defer func() { b.inflight.Add(-1) }()
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
		g.met.routedJobs.Set(float64(g.jobs.len()))
	}
}

// newRequestID mints a process-unique idempotency key for a solve request
// that arrived without one.
func (g *Gateway) newRequestID() string {
	return "gw-" + strconv.FormatInt(g.start.UnixNano(), 36) + "-" + strconv.FormatUint(g.reqSeq.Add(1), 36)
}

// nameHash places a matrix key on the ring: FNV-1a, which the ring's lookup
// finalizes with mix64.
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

// lruMapEntries bounds each lruMap: the job-id → backend routes for /jobs
// polling and the request-id → backend routes of client-keyed solves.
const lruMapEntries = 4096

// lruMap is a small bounded string→string map with LRU eviction (job and
// request routes).
type lruMap struct {
	mu    sync.Mutex
	ll    *list.List
	items map[string]*list.Element
}

type lruEntry struct{ k, v string }

func newLRUMap() *lruMap {
	return &lruMap{ll: list.New(), items: map[string]*list.Element{}}
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
	m.insert(k, v)
}

// claim returns the value stored under k and true, or stores v there and
// returns it and false: one step, so two concurrent claims agree.
func (m *lruMap) claim(k, v string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[k]; ok {
		m.ll.MoveToFront(el)
		return el.Value.(*lruEntry).v, true
	}
	m.insert(k, v)
	return v, false
}

// insert adds a new key as the most recent entry, evicting the least recent
// beyond lruMapEntries. m.mu is held.
func (m *lruMap) insert(k, v string) {
	m.items[k] = m.ll.PushFront(&lruEntry{k: k, v: v})
	for m.ll.Len() > lruMapEntries {
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
