package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"time"

	"spcg/internal/gateway"
	"spcg/internal/service"
)

const (
	serveBackends = 2
	serveClients  = 2
	// requestTimeout bounds one request; hitting it is a failed op.
	requestTimeout = 60 * time.Second
)

// backendNames are the host names the gateway knows its backends by. The
// gateway places backends on its hash ring by name, so fixed names give the
// same matrix-to-backend map on every run whatever ports the listeners got;
// the gateway's HTTP client dials them through stack.dial. With this pair
// each backend owns 3 of serve_warm's 6 matrices and 12 of serve_churn's 24
// (the first pair tried put 5 of the 6 on one backend).
var backendNames = []string{"spcgd-52.bench:80", "spcgd-53.bench:80"}

// stack is the full serving path in one process: the gateway in front of two
// solve services, each behind its own loopback listener.
type stack struct {
	svcs     []*service.Server
	servers  []*http.Server
	served   []chan error
	gw       *gateway.Gateway
	gwURL    string
	backends []string // real base URLs, for probes that bypass the gateway
	addrOf   map[string]string
	httpc    []*http.Client
}

// startStack is the cold start of the serving path. Backends run one solver
// worker each, so the two clients' solves share the kernel pool the way two
// daemons on this box would.
func startStack(cfg service.Config) (*stack, error) {
	cfg.Workers = 1
	st := &stack{addrOf: map[string]string{}}
	listen := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		st.servers = append(st.servers, srv)
		st.served = append(st.served, done)
		return ln.Addr().String(), nil
	}
	var names []string
	for i := 0; i < serveBackends; i++ {
		svc := service.New(cfg)
		st.svcs = append(st.svcs, svc)
		addr, err := listen(svc.Handler())
		if err != nil {
			st.close()
			return nil, err
		}
		st.addrOf[backendNames[i]] = addr
		st.backends = append(st.backends, "http://"+addr)
		names = append(names, "http://"+backendNames[i])
	}
	gw, err := gateway.New(gateway.Config{
		Backends: names,
		Client:   &http.Client{Transport: &http.Transport{DialContext: st.dial}},
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.gw = gw
	addr, err := listen(gw.Handler())
	if err != nil {
		st.close()
		return nil, err
	}
	st.gwURL = "http://" + addr
	for c := 0; c < serveClients; c++ {
		// One connection per client: a client is a caller blocked on its solve.
		st.httpc = append(st.httpc, &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		})
	}
	return st, nil
}

// dial maps a backend's fixed name to the address its listener got.
func (st *stack) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	if real, ok := st.addrOf[addr]; ok {
		addr = real
	}
	var d net.Dialer
	return d.DialContext(ctx, network, addr)
}

// close stops listeners, gateway and services, and waits for each.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, c := range st.httpc {
		c.CloseIdleConnections()
	}
	for i, srv := range st.servers {
		_ = srv.Shutdown(ctx) // listener gone either way; Serve's return is awaited next
		<-st.served[i]
	}
	if st.gw != nil {
		st.gw.Close()
	}
	for _, svc := range st.svcs {
		_ = svc.Shutdown(ctx) // on timeout it cancels the solves and still waits for them
	}
}

// solveReply is what a /solve round trip gave back.
type solveReply struct {
	code   int
	status service.JobStatus
	dur    time.Duration
	err    error
}

// ok is the correctness rule of the serving ops.
func (r solveReply) ok() bool {
	res := r.status.Result
	return r.err == nil && r.code == http.StatusOK && res != nil && res.Converged &&
		res.TrueRelResidual <= residualSlop*solveTol
}

func (r solveReply) solveMS() float64 {
	if r.status.Result == nil {
		return 0
	}
	return r.status.Result.SolveMS
}

// postSolve sends one request and decodes the reply; dur runs from send to
// decoded reply.
func postSolve(c *http.Client, base string, req service.SolveRequest) solveReply {
	body, err := json.Marshal(req)
	if err != nil {
		return solveReply{err: err}
	}
	t0 := time.Now()
	resp, err := c.Post(base+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return solveReply{err: err, dur: time.Since(t0)}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := solveReply{code: resp.StatusCode, err: err}
	if err == nil && resp.StatusCode == http.StatusOK {
		r.err = json.Unmarshal(raw, &r.status)
	}
	r.dur = time.Since(t0)
	return r
}

// getJSON fetches a JSON document into v.
func getJSON(c *http.Client, u string, v any) error {
	resp, err := c.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", u, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// postTune runs the synchronous tuning of one matrix through the gateway.
func postTune(c *http.Client, base, matrix string) error {
	body, _ := json.Marshal(map[string]string{"matrix": matrix}) // a string map always marshals
	resp, err := c.Post(base+"/tune", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /tune %s: HTTP %d", matrix, resp.StatusCode)
	}
	return nil
}

// serveCounters are the server-side counts a traced section takes deltas of:
// both backends' /metrics?format=json summed, plus the gateway's.
type serveCounters struct {
	requests, rejected                 float64
	setupHits, setupMisses             float64
	batchedRequests, blockSolves, solo float64
	formatConversions                  float64
	tuneRequests, tuneStoreHits        float64
	affinityHits, affinityMisses       float64
	spills, failovers, retries         float64
}

func (a serveCounters) minus(b serveCounters) serveCounters {
	return serveCounters{
		requests: a.requests - b.requests, rejected: a.rejected - b.rejected,
		setupHits: a.setupHits - b.setupHits, setupMisses: a.setupMisses - b.setupMisses,
		batchedRequests: a.batchedRequests - b.batchedRequests, blockSolves: a.blockSolves - b.blockSolves, solo: a.solo - b.solo,
		formatConversions: a.formatConversions - b.formatConversions,
		tuneRequests:      a.tuneRequests - b.tuneRequests, tuneStoreHits: a.tuneStoreHits - b.tuneStoreHits,
		affinityHits: a.affinityHits - b.affinityHits, affinityMisses: a.affinityMisses - b.affinityMisses,
		spills: a.spills - b.spills, failovers: a.failovers - b.failovers, retries: a.retries - b.retries,
	}
}

func (st *stack) counters() (serveCounters, error) {
	var c serveCounters
	for _, b := range st.backends {
		var m service.MetricsSnapshot
		if err := getJSON(st.httpc[0], b+"/metrics?format=json", &m); err != nil {
			return c, err
		}
		c.requests += float64(m.RequestsTotal)
		c.rejected += float64(m.Rejected)
		c.setupHits += float64(m.SetupCache.Hits)
		c.setupMisses += float64(m.SetupCache.Misses)
		c.batchedRequests += float64(m.Batching.BatchedRequests)
		c.blockSolves += float64(m.Batching.BlockSolves)
		c.solo += float64(m.Batching.SoloSolves)
		c.formatConversions += float64(m.Formats.Conversions)
		c.tuneRequests += float64(m.Tune.Requests)
		c.tuneStoreHits += float64(m.Tune.StoreHits)
	}
	var g gateway.Snapshot
	if err := getJSON(st.httpc[0], st.gwURL+"/metrics?format=json", &g); err != nil {
		return c, err
	}
	c.affinityHits = float64(g.AffinityHits)
	c.affinityMisses = float64(g.AffinityMiss)
	c.spills = float64(g.Spills)
	c.failovers = float64(g.Failovers)
	c.retries = float64(g.Retries)
	return c, nil
}

// counted is implemented by instances that have server-side counters.
type counted interface {
	counters() (serveCounters, error)
}

// serveInst replays a cyclic schedule of requests through the gateway.
type serveInst struct {
	*stack
	seed     int64
	block    int
	schedule []service.SolveRequest // a whole number of blocks; op i uses schedule[i % len]
}

func (s *serveInst) clients() int  { return serveClients }
func (s *serveInst) blockLen() int { return s.block }
func (s *serveInst) close()        { s.stack.close() }

func (s *serveInst) do(i, client int, tr *tracer) opRecord {
	req := s.schedule[i%len(s.schedule)]
	// A fresh right-hand side per op: same-matrix requests stay coalescable
	// (the batch key ignores the RHS) but no two ops are the same solve.
	req.RHS = fmt.Sprintf("random:%d", (s.seed*7919+int64(i))%(1<<31))
	kind := req.Method
	if req.NoBatch {
		kind += "+no_batch"
	}
	opSpan := tr.begin("op."+kind, -1, i)
	call := tr.begin("gateway.POST /solve", opSpan, i)
	r := postSolve(s.httpc[client], s.gwURL, req)
	tr.end(call)
	tr.end(opSpan)
	return opRecord{kind: kind, dur: r.dur, ok: r.ok(), solveMS: r.solveMS()}
}

// requestClass is one of the request shapes of serve_warm.
type requestClass struct {
	method  string
	noBatch bool
	s       int
}

func (c requestClass) request(matrix string) service.SolveRequest {
	req := service.SolveRequest{Matrix: matrix, Method: c.method, Tol: solveTol, NoBatch: c.noBatch, S: c.s}
	if c.s > 0 {
		req.Basis = "chebyshev"
	}
	return req
}

// The request mix of serve_warm per 20 requests on one matrix: 50 % plain
// PCG that the backend may coalesce, 20 % PCG that opts out, 15 % CA-PCG,
// 15 % whatever the tuner chose.
var warmMix = []struct {
	class requestClass
	count int
}{
	{requestClass{method: "pcg"}, 10},
	{requestClass{method: "pcg", noBatch: true}, 4},
	{requestClass{method: "capcg", s: 4}, 3},
	{requestClass{method: "auto"}, 3},
}

// warmMatrices are small enough that a solve takes 0.3–30 ms. warmTail is
// the one large matrix: tuned and warmed like the rest but drawn once per
// block as a plain PCG solve, so the slow request a real mix contains is in
// the tail without being most of the wall time (at the same weight as the
// others it would be five sixths of it, see README.md).
var (
	warmMatrices = []string{"poisson2d:16", "poisson2d:32", "poisson3d:16", "hubgraph:4096", "varcoeff2d:48:2:1"}
	warmTail     = "poisson2d:128"
)

// shuffledBlocks repeats the block a fixed number of times, each copy in its
// own seeded order, so the cycle is long enough that order effects average
// out and every block still holds the exact mix.
func shuffledBlocks(block []service.SolveRequest, seed int64) []service.SolveRequest {
	const copies = 32
	rng := rand.New(rand.NewSource(seed))
	out := make([]service.SolveRequest, 0, copies*len(block))
	for k := 0; k < copies; k++ {
		perm := rng.Perm(len(block))
		for _, j := range perm {
			out = append(out, block[j])
		}
	}
	return out
}

func setupServeWarm(seed int64, smoke bool) (instance, error) {
	matrices, tail := warmMatrices, warmTail
	if smoke {
		matrices, tail = warmMatrices[:2], "poisson2d:24"
	}
	st, err := startStack(service.Config{})
	if err != nil {
		return nil, err
	}
	inst := &serveInst{stack: st, seed: seed}
	var block []service.SolveRequest
	for _, m := range matrices {
		for _, mix := range warmMix {
			for k := 0; k < mix.count; k++ {
				block = append(block, mix.class.request(m))
			}
		}
	}
	block = append(block, warmMix[0].class.request(tail))
	inst.block = len(block)
	inst.schedule = shuffledBlocks(block, seed)

	// Tune every matrix, then send one request of every class so each
	// preconditioner, spectrum and format the timed section needs is cached.
	for _, m := range append(append([]string(nil), matrices...), tail) {
		if err := postTune(st.httpc[0], st.gwURL, m); err != nil {
			st.close()
			return nil, err
		}
		for _, mix := range warmMix {
			req := mix.class.request(m)
			req.NoBatch = true
			if r := postSolve(st.httpc[0], st.gwURL, req); !r.ok() {
				st.close()
				return nil, fmt.Errorf("warming %s %s: HTTP %d, %v", m, mix.class.method, r.code, r.err)
			}
		}
	}
	return inst, nil
}

// churnCombo is one (preconditioner, method) pair of serve_churn.
type churnCombo struct {
	precond string
	class   requestClass
}

// churnCombos lists the admitted pairs for a matrix family. The Chebyshev
// preconditioner is left out on the hub graphs: degree 4 solves them in one
// iteration, and sPCG then breaks down on the rank-deficient basis (see the
// convergence audit in README.md).
func churnCombos(hub bool) []churnCombo {
	preconds := []string{"jacobi", "ic0", "ssor", "chebyshev:4"}
	if hub {
		preconds = preconds[:3]
	}
	classes := []requestClass{{method: "pcg", noBatch: true}, {method: "spcg", s: 5}, {method: "capcg", s: 5}}
	var out []churnCombo
	for _, p := range preconds {
		for _, c := range classes {
			out = append(out, churnCombo{p, c})
		}
	}
	return out
}

type churnMatrix struct {
	name string
	hub  bool
}

func churnMatrices(smoke bool) []churnMatrix {
	var out []churnMatrix
	if smoke {
		for k := 1; k <= 3; k++ {
			out = append(out, churnMatrix{fmt.Sprintf("varcoeff2d:12:2:%d", k), false}, churnMatrix{fmt.Sprintf("poisson3d:%d", 5+k), false})
		}
		return out
	}
	for k := 1; k <= 8; k++ {
		out = append(out, churnMatrix{fmt.Sprintf("varcoeff2d:96:2:%d", k), false})
		out = append(out, churnMatrix{fmt.Sprintf("hubgraph:8192:%d", k), true})
	}
	for _, nx := range []int{20, 22, 24, 26, 28, 30, 32, 33} {
		out = append(out, churnMatrix{fmt.Sprintf("poisson3d:%d", nx), false})
	}
	return out
}

// churnCaches is the cache size that makes 12 matrices per backend evict:
// each block asks for every matrix once, so a 4-entry LRU never hits.
const churnCaches = 4

func setupServeChurn(seed int64, smoke bool) (instance, error) {
	matrices := churnMatrices(smoke)
	st, err := startStack(service.Config{CacheSize: churnCaches, TuneEntries: churnCaches})
	if err != nil {
		return nil, err
	}
	inst := &serveInst{stack: st, seed: seed, block: len(matrices)}
	// Block j gives matrix i the combination offset[i]+j, so every block
	// asks for every matrix once and, over a cycle, every matrix meets every
	// admitted combination. The seed picks the offsets and the order.
	rng := rand.New(rand.NewSource(seed))
	offset := rng.Perm(len(matrices))
	const cycle = 36 // a multiple of both combination counts (12 and 9)
	for j := 0; j < cycle; j++ {
		for _, i := range rng.Perm(len(matrices)) {
			combos := churnCombos(matrices[i].hub)
			c := combos[(offset[i]+j)%len(combos)]
			req := c.class.request(matrices[i].name)
			req.Precond = c.precond
			inst.schedule = append(inst.schedule, req)
		}
	}
	// Resolve every matrix once so the gateway knows its fingerprint; the
	// backend that answers builds the matrix.
	for _, m := range matrices {
		var doc map[string]any
		if err := getJSON(st.httpc[0], st.gwURL+"/affinity/"+url.PathEscape(m.name), &doc); err != nil {
			st.close()
			return nil, err
		}
	}
	return inst, nil
}
