package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spcg/internal/gateway"
	"spcg/internal/service"
)

// This file benchmarks the horizontal scale-out tier: a spcggw gateway over
// a pool of real in-process spcgd backends, on a mixed repeated-matrix
// workload whose working set exceeds one backend's setup cache and tune
// store.
//
// The thesis mirrors the paper's scaling argument at the serving layer: the
// expensive per-matrix work — preconditioner build, Ritz spectral probe and
// above all the autotuner's trial schedule
// (method:"auto" requests re-run successive-halving probe solves whenever a
// matrix's tuned decision is missing) — is amortizable only if repeat
// requests for a matrix land where that state is warm. A single backend
// whose W-matrix working set exceeds its setup/tune capacity C
// thrashes: decisions evict, every repeat re-triggers trial solves worth
// tens of real solves. N backends behind fingerprint-affinity routing
// partition the working set into W/N ≤ C shards, so steady state is
// all-warm. Aggregate throughput then scales even on one machine, because
// the win is avoided recomputation, not added cores.
//
// `spcgbench gateway` exits non-zero (ValidateGateway) unless:
//
//  1. affinity hit-rate on the largest healthy arm ≥ 90%;
//  2. aggregate throughput with 4 backends ≥ 2.5× the 1-backend arm;
//  3. killing one backend mid-run loses zero accepted requests (every
//     logical request still reaches a terminal outcome, through failover
//     and idempotent request_id retries).

// GatewayBenchConfig parameterizes the scale-out benchmark.
type GatewayBenchConfig struct {
	// Arms are the pool sizes compared (default 1, 2, 4).
	Arms []int
	// Requests per arm in the timed phase (default 240).
	Requests int
	// Clients is the concurrent client count (default 8).
	Clients int
	// Matrices is the distinct-matrix working set W (default 24).
	Matrices int
	// CacheSize is each backend's setup/format/tune capacity (default 8 —
	// deliberately < W so a single backend thrashes: evicted tune decisions
	// re-trigger background trial schedules, the dominant amortizable cost).
	CacheSize int
	// Workers is each backend's solver pool size (default 2).
	Workers int
	// Method/S/Tol shape the per-request solve (default auto, s=4, 1e-4;
	// s is sent only for explicit s-step methods).
	Method string
	S      int
	Tol    float64
	// KillAfterFrac is the fraction of failover-phase requests issued before
	// one backend is killed (default 0.25).
	KillAfterFrac float64
}

func (c GatewayBenchConfig) withDefaults() GatewayBenchConfig {
	if len(c.Arms) == 0 {
		c.Arms = []int{1, 2, 4}
	}
	if c.Requests <= 0 {
		c.Requests = 240
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Matrices <= 0 {
		c.Matrices = 24
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 8
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Method == "" {
		c.Method = "auto"
	}
	if c.S <= 0 {
		c.S = 4
	}
	if c.Tol <= 0 {
		c.Tol = 1e-4
	}
	if c.KillAfterFrac <= 0 || c.KillAfterFrac >= 1 {
		c.KillAfterFrac = 0.25
	}
	return c
}

// GatewayArmResult is one pool size's measurements (timed phase only; each
// arm gets one uncounted warmup pass over the working set first).
type GatewayArmResult struct {
	Backends      int     `json:"backends"`
	Requests      int     `json:"requests"`
	Succeeded     int     `json:"succeeded"`
	WallS         float64 `json:"wall_s"`
	ThroughputRPS float64 `json:"throughput_rps"`
	AffinityRate  float64 `json:"affinity_rate"`
	AffinityHits  int64   `json:"affinity_hits"`
	AffinityMiss  int64   `json:"affinity_misses"`
	Spills        int64   `json:"spills"`
	Failovers     int64   `json:"failovers"`
	Shed          int64   `json:"shed"`
	P50MS         float64 `json:"latency_p50_ms"`
	P95MS         float64 `json:"latency_p95_ms"`
}

// GatewayFailoverResult is the mid-run-kill phase.
type GatewayFailoverResult struct {
	Backends  int    `json:"backends"`
	Requests  int    `json:"requests"`
	KillAfter int    `json:"kill_after_requests"`
	Killed    string `json:"killed_backend"`
	// Accepted counts logical requests that got past admission (everything
	// not permanently shed with 429/503); Lost counts accepted requests that
	// never reached a terminal outcome — the acceptance gate demands 0.
	Accepted     int     `json:"accepted"`
	Completed    int     `json:"completed"`
	Lost         int     `json:"lost"`
	Shed         int     `json:"shed"`
	Failovers    int64   `json:"failovers"`
	AffinityRate float64 `json:"affinity_rate"`
	WallS        float64 `json:"wall_s"`
}

// GatewayResult is the full benchmark document (BENCH_gateway.json).
type GatewayResult struct {
	Matrices  int                   `json:"matrices"`
	CacheSize int                   `json:"cache_size"`
	Workers   int                   `json:"workers"`
	Clients   int                   `json:"clients"`
	Method    string                `json:"method"`
	S         int                   `json:"s"`
	Tol       float64               `json:"tol"`
	Arms      []GatewayArmResult    `json:"arms"`
	SpeedupVs1 map[string]float64   `json:"speedup_vs_1_backend"`
	Failover  GatewayFailoverResult `json:"failover"`
}

// benchBackend is one live in-process spcgd: a real service.Server behind a
// real TCP listener, so gateway transport failures are the real thing.
type benchBackend struct {
	svc *service.Server
	srv *http.Server
	url string
}

// kill force-closes the backend's listener and every active connection —
// the closest in-process stand-in for a machine dying mid-solve.
func (b *benchBackend) kill() { _ = b.srv.Close() }

func (b *benchBackend) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_ = b.svc.Shutdown(ctx)
	_ = b.srv.Close()
}

func startBackendPool(n int, cfg GatewayBenchConfig) ([]*benchBackend, []string, error) {
	var pool []*benchBackend
	var urls []string
	for i := 0; i < n; i++ {
		svc := service.New(service.Config{
			Workers:     cfg.Workers,
			QueueDepth:  64,
			BatchMax:    1, // no coalescing: the benchmark measures routing, not batching
			CacheSize:   cfg.CacheSize,
			TuneEntries: cfg.CacheSize, // tune decisions thrash with the rest of the working set
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, b := range pool {
				b.stop()
			}
			return nil, nil, fmt.Errorf("listen: %v", err)
		}
		srv := &http.Server{Handler: svc.Handler()}
		go func() { _ = srv.Serve(ln) }()
		b := &benchBackend{svc: svc, srv: srv, url: "http://" + ln.Addr().String()}
		pool = append(pool, b)
		urls = append(urls, b.url)
	}
	return pool, urls, nil
}

// benchMatrix names the working set: W distinct mild-contrast
// variable-coefficient operators (distinct seeds ⇒ distinct fingerprints,
// comparable cost, quick convergence — the measured cost contrast is the
// amortizable per-matrix state, not the solve itself).
func benchMatrix(i, w int) string {
	return fmt.Sprintf("varcoeff2d:24:2:%d", 1+i%w)
}

type gwClientResult struct {
	ok       bool // terminal outcome reached
	shed     bool // permanently 429/503 after retries
	latencMS float64
}

// fireOne drives one logical request to a terminal outcome: 429/503 and
// transport blips are retried with backoff (safe — the request_id makes
// resubmission idempotent), anything else is terminal.
func fireOne(client *http.Client, gwURL, matrix, reqID string, cfg GatewayBenchConfig) gwClientResult {
	doc := map[string]any{
		"matrix":     matrix,
		"method":     cfg.Method,
		"tol":        cfg.Tol,
		"request_id": reqID,
	}
	if cfg.Method != "auto" && cfg.Method != "pcg" && cfg.Method != "pcg3" {
		doc["s"] = cfg.S
	}
	body, _ := json.Marshal(doc)
	t0 := time.Now()
	const maxAttempts = 30
	for attempt := 0; attempt < maxAttempts; attempt++ {
		resp, err := client.Post(gwURL+"/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			time.Sleep(time.Duration(20*(attempt+1)) * time.Millisecond)
			continue
		}
		code := resp.StatusCode
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch code {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			time.Sleep(time.Duration(25*(attempt+1)) * time.Millisecond)
			continue
		default:
			// 200/4xx/5xx-terminal: the job reached a terminal state.
			return gwClientResult{ok: code == http.StatusOK, latencMS: msSince(t0)}
		}
	}
	return gwClientResult{shed: true, latencMS: msSince(t0)}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1000 }

// runPhase fires total requests over the working set with cfg.Clients
// concurrent clients; onIssue (may be nil) observes each issue index before
// the request fires — the failover phase uses it to trigger the kill.
func runPhase(client *http.Client, gwURL, tag string, total int, cfg GatewayBenchConfig, onIssue func(int)) ([]gwClientResult, time.Duration) {
	results := make([]gwClientResult, total)
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = fireOne(client, gwURL, benchMatrix(i, cfg.Matrices),
					fmt.Sprintf("%s-%d", tag, i), cfg)
			}
		}()
	}
	for i := 0; i < total; i++ {
		if onIssue != nil {
			onIssue(i)
		}
		next <- i
	}
	close(next)
	wg.Wait()
	return results, time.Since(start)
}

func percentile(lat []float64, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	return sorted[int(p*float64(len(sorted)-1))]
}

// RunGateway executes the scale-out arms and the failover phase.
func RunGateway(cfg GatewayBenchConfig, progress io.Writer) (*GatewayResult, error) {
	cfg = cfg.withDefaults()
	if progress == nil {
		progress = io.Discard
	}
	res := &GatewayResult{
		Matrices: cfg.Matrices, CacheSize: cfg.CacheSize, Workers: cfg.Workers,
		Clients: cfg.Clients, Method: cfg.Method, S: cfg.S, Tol: cfg.Tol,
		SpeedupVs1: map[string]float64{},
	}
	client := &http.Client{Timeout: 2 * time.Minute}

	for _, n := range cfg.Arms {
		fmt.Fprintf(progress, "[gateway] arm %d backend(s): warming %d matrices then %d requests × %d clients\n",
			n, cfg.Matrices, cfg.Requests, cfg.Clients)
		arm, err := runArm(client, n, cfg)
		if err != nil {
			return nil, err
		}
		res.Arms = append(res.Arms, *arm)
		fmt.Fprintf(progress, "[gateway]   %.1f req/s, affinity %.1f%%, p95 %.0fms\n",
			arm.ThroughputRPS, 100*arm.AffinityRate, arm.P95MS)
	}
	base := 0.0
	for _, a := range res.Arms {
		if a.Backends == 1 {
			base = a.ThroughputRPS
		}
	}
	if base > 0 {
		for _, a := range res.Arms {
			res.SpeedupVs1[fmt.Sprintf("%d", a.Backends)] = a.ThroughputRPS / base
		}
	}

	// Failover phase on the largest arm.
	maxArm := cfg.Arms[0]
	for _, n := range cfg.Arms {
		if n > maxArm {
			maxArm = n
		}
	}
	fmt.Fprintf(progress, "[gateway] failover: %d backends, killing one after %d%% of %d requests\n",
		maxArm, int(100*cfg.KillAfterFrac), cfg.Requests)
	fo, err := runFailover(client, maxArm, cfg)
	if err != nil {
		return nil, err
	}
	res.Failover = *fo
	fmt.Fprintf(progress, "[gateway]   accepted %d, completed %d, lost %d, failovers %d\n",
		fo.Accepted, fo.Completed, fo.Lost, fo.Failovers)
	return res, nil
}

func newBenchGateway(urls []string) (*gateway.Gateway, *http.Server, string, error) {
	gw, err := gateway.New(gateway.Config{
		Backends:      urls,
		ProbeInterval: 200 * time.Millisecond,
		RetryBackoff:  10 * time.Millisecond,
	})
	if err != nil {
		return nil, nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		return nil, nil, "", err
	}
	srv := &http.Server{Handler: gw.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return gw, srv, "http://" + ln.Addr().String(), nil
}

func runArm(client *http.Client, n int, cfg GatewayBenchConfig) (*GatewayArmResult, error) {
	pool, urls, err := startBackendPool(n, cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, b := range pool {
			b.stop()
		}
	}()
	gw, gwSrv, gwURL, err := newBenchGateway(urls)
	if err != nil {
		return nil, err
	}
	defer func() { _ = gwSrv.Close(); gw.Close() }()

	// Warmup: one uncounted pass over the working set, so the arms compare
	// steady state (on the thrashing arm warmup buys nothing — that is the
	// point).
	runPhase(client, gwURL, fmt.Sprintf("warm%d", n), cfg.Matrices, cfg, nil)
	before := gw.Snapshot()

	results, wall := runPhase(client, gwURL, fmt.Sprintf("arm%d", n), cfg.Requests, cfg, nil)
	after := gw.Snapshot()

	arm := &GatewayArmResult{
		Backends:     n,
		Requests:     cfg.Requests,
		WallS:        wall.Seconds(),
		AffinityHits: after.AffinityHits - before.AffinityHits,
		AffinityMiss: after.AffinityMiss - before.AffinityMiss,
		Spills:       after.Spills - before.Spills,
		Failovers:    after.Failovers - before.Failovers,
		Shed:         after.Shed - before.Shed,
	}
	var lats []float64
	for _, r := range results {
		if r.ok {
			arm.Succeeded++
		}
		lats = append(lats, r.latencMS)
	}
	arm.ThroughputRPS = float64(cfg.Requests) / wall.Seconds()
	if tot := arm.AffinityHits + arm.AffinityMiss; tot > 0 {
		arm.AffinityRate = float64(arm.AffinityHits) / float64(tot)
	}
	arm.P50MS = percentile(lats, 0.50)
	arm.P95MS = percentile(lats, 0.95)
	if arm.Succeeded < cfg.Requests {
		return nil, fmt.Errorf("arm %d: only %d/%d requests converged", n, arm.Succeeded, cfg.Requests)
	}
	return arm, nil
}

func runFailover(client *http.Client, n int, cfg GatewayBenchConfig) (*GatewayFailoverResult, error) {
	pool, urls, err := startBackendPool(n, cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, b := range pool {
			b.stop()
		}
	}()
	gw, gwSrv, gwURL, err := newBenchGateway(urls)
	if err != nil {
		return nil, err
	}
	defer func() { _ = gwSrv.Close(); gw.Close() }()

	runPhase(client, gwURL, "fowarm", cfg.Matrices, cfg, nil)

	killAfter := int(cfg.KillAfterFrac * float64(cfg.Requests))
	victim := pool[n-1]
	var killed atomic.Bool
	onIssue := func(i int) {
		if i == killAfter && killed.CompareAndSwap(false, true) {
			victim.kill()
		}
	}
	results, wall := runPhase(client, gwURL, "fo", cfg.Requests, cfg, onIssue)
	snap := gw.Snapshot()

	fo := &GatewayFailoverResult{
		Backends:     n,
		Requests:     cfg.Requests,
		KillAfter:    killAfter,
		Killed:       victim.url,
		Failovers:    snap.Failovers,
		AffinityRate: snap.AffinityRate,
		WallS:        wall.Seconds(),
	}
	for _, r := range results {
		switch {
		case r.shed:
			fo.Shed++
		case r.ok:
			fo.Accepted++
			fo.Completed++
		default:
			// A terminal non-200 outcome (failed/stagnated job): accepted and
			// accounted for — not lost, but not completed-converged either.
			fo.Accepted++
		}
	}
	fo.Lost = fo.Accepted - fo.Completed
	return fo, nil
}

// ValidateGateway is the acceptance gate `spcgbench gateway` exits through.
func ValidateGateway(res *GatewayResult) error {
	var one, max *GatewayArmResult
	for i := range res.Arms {
		a := &res.Arms[i]
		if a.Backends == 1 {
			one = a
		}
		if max == nil || a.Backends > max.Backends {
			max = a
		}
	}
	if one == nil || max == nil || max.Backends < 2 {
		return fmt.Errorf("need a 1-backend arm and a multi-backend arm to validate")
	}
	if max.AffinityRate < 0.90 {
		return fmt.Errorf("affinity hit-rate %.1f%% on the %d-backend arm, want ≥ 90%%",
			100*max.AffinityRate, max.Backends)
	}
	speedup := max.ThroughputRPS / one.ThroughputRPS
	if speedup < 2.5 {
		return fmt.Errorf("aggregate throughput ×%.2f with %d backends vs 1, want ≥ 2.5×",
			speedup, max.Backends)
	}
	if res.Failover.Lost != 0 {
		return fmt.Errorf("%d accepted requests lost across the mid-run backend kill, want 0", res.Failover.Lost)
	}
	if res.Failover.Completed == 0 {
		return fmt.Errorf("failover phase completed no requests")
	}
	return nil
}

// RenderGateway prints the human-readable summary.
func RenderGateway(w io.Writer, res *GatewayResult) {
	fmt.Fprintf(w, "Gateway scale-out: W=%d matrices, cache=%d entries/backend, %s s=%d tol=%.0e, %d clients\n",
		res.Matrices, res.CacheSize, res.Method, res.S, res.Tol, res.Clients)
	fmt.Fprintf(w, "%-9s %10s %10s %10s %9s %9s %9s\n",
		"backends", "req/s", "speedup", "affinity", "p50 ms", "p95 ms", "failovers")
	for _, a := range res.Arms {
		fmt.Fprintf(w, "%-9d %10.1f %9.2fx %9.1f%% %9.1f %9.1f %9d\n",
			a.Backends, a.ThroughputRPS, res.SpeedupVs1[fmt.Sprintf("%d", a.Backends)],
			100*a.AffinityRate, a.P50MS, a.P95MS, a.Failovers)
	}
	fo := res.Failover
	fmt.Fprintf(w, "failover: killed 1 of %d backends after %d requests — accepted %d, completed %d, lost %d (%d failovers, %.1f%% affinity)\n",
		fo.Backends, fo.KillAfter, fo.Accepted, fo.Completed, fo.Lost, fo.Failovers, 100*fo.AffinityRate)
}
