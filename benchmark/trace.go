package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"spcg/internal/pool"
)

// traceFile is where the traced run writes its spans, in the directory the
// benchmark was started from.
const traceFile = "trace.json"

// traceDoc is the content of trace.json. README.md says how to read it.
type traceDoc struct {
	Env      envStamp `json:"env"`
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	// Triad footprint and the last-level cache it is sized from, in bytes.
	TriadBytes int64 `json:"triad_footprint_bytes"`
	LLCBytes   int64 `json:"llc_bytes"`
	// ByName sums duration and self time (duration minus what child spans
	// cover) over all spans of a name.
	ByName  map[string]spanTotal   `json:"by_name"`
	Metrics map[string]metricValue `json:"metrics"`
	Failed  []string               `json:"failed_probes,omitempty"`
	Spans   []span                 `json:"spans"`
}

// runTraced is the run the per-layer metrics come from. It times the
// workload's schedule twice in one process — half the time untraced, half
// with a span around every call into a layer — so their ratio is the tracing
// overhead, then runs the layer probes, and writes every span to trace.json.
// End-to-end metrics are never taken from this run.
func runTraced(w workload, f runFlags, env envStamp, stderr io.Writer) (result, error) {
	res := result{workload: w.name}
	inst, err := w.setup(f.seed, f.smoke)
	if err != nil {
		return res, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	half := secondsToDuration(f.seconds / 2)
	warm := runSection(inst, 0, 0, nil)
	plain := runMeasured(inst, warm.next, half, nil)

	tr := newTracer()
	before, berr := countersOf(inst)
	poolBefore := pool.ReadStats()
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	traced := runMeasured(inst, plain.next, half, tr)
	runtime.ReadMemStats(&memAfter)
	poolAfter := pool.ReadStats()
	after, aerr := countersOf(inst)
	inst.close()
	if berr != nil || aerr != nil {
		return res, fmt.Errorf("%s: reading server counters: %v %v", w.name, berr, aerr)
	}

	p := &prober{tr: tr, smoke: f.smoke, seed: f.seed, out: map[string]float64{}, samples: map[string]int{}}
	p.root = tr.begin("probes", -1, -1)
	if err := p.probeAll(env); err != nil {
		return res, err
	}
	tr.end(p.root)
	fmt.Fprintf(stderr, "bench.triad_gbs: footprint %d bytes, last-level cache %d bytes (computed bytes: 24 per element)\n", p.triadBytes, p.llcBytes)
	for _, msg := range p.failed {
		fmt.Fprintln(stderr, "probe failed:", msg)
	}

	// What the traced section itself shows.
	ops := float64(len(traced.ops))
	out := p.out
	out["bench.trace_overhead_ratio"] = ratio(plain.opsPerSecond(), traced.opsPerSecond())
	dispatched := float64(poolAfter.Dispatches - poolBefore.Dispatches)
	inline := float64(poolAfter.InlineRuns - poolBefore.InlineRuns)
	out["pool.dispatches_per_op"] = ratio(dispatched+inline, ops)
	out["pool.inline_share"] = ratio(inline, dispatched+inline)
	out["solver.alloc_mb_per_op"] = ratio(float64(memAfter.TotalAlloc-memBefore.TotalAlloc)/(1<<20), ops)
	serveLayer(out, traced.section, before, after)

	spans := tr.snapshot()
	out["bench.span_count"] = float64(len(spans))

	res.attempted = len(plain.ops) + len(traced.ops)
	res.failed = plain.failed() + traced.failed() + len(p.failed)
	doc := traceDoc{
		Env: env, Workload: w.name, Seed: f.seed, Seconds: f.seconds,
		TriadBytes: p.triadBytes, LLCBytes: p.llcBytes,
		ByName: totalsByName(spans), Metrics: map[string]metricValue{},
		Failed: p.failed, Spans: spans,
	}
	for _, lm := range layerMetrics {
		v, ok := out[lm.name]
		if !ok {
			return res, fmt.Errorf("per-layer metric %s was not measured", lm.name)
		}
		n, probed := p.samples[lm.name]
		if !probed {
			n = len(traced.ops) // measured over the traced section
		}
		res.metrics = append(res.metrics, metric{lm.name, v, lm.unit, n})
		doc.Metrics[lm.name] = metricValue{v, lm.unit}
	}
	return res, writeTrace(doc)
}

func writeTrace(doc traceDoc) error {
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(traceFile, raw, 0o644)
}

// countersOf reads the server-side counters of a serving instance; library
// instances have none and give zeros.
func countersOf(inst instance) (serveCounters, error) {
	if c, ok := inst.(counted); ok {
		return c.counters()
	}
	return serveCounters{}, nil
}

// serveLayer fills the service.* and gateway.* metrics that describe the
// traced section: client-side latency split and /metrics deltas. On the
// library workloads no server runs, so the counts are 0.
func serveLayer(out map[string]float64, sec section, before, after serveCounters) {
	var nonsolve []float64
	var solveSum, latSum float64
	for _, op := range sec.ops {
		if op.solveMS > 0 {
			ms := float64(op.dur) / 1e6
			nonsolve = append(nonsolve, ms-op.solveMS)
			solveSum += op.solveMS
			latSum += ms
		}
	}
	out["service.nonsolve_ms"] = median(nonsolve)
	out["service.solve_share"] = ratio(solveSum, latSum)
	out["service.request_p99_ms"] = 0
	if len(nonsolve) > 0 {
		out["service.request_p99_ms"] = percentile(sec.durationsMS(), 99)
	}
	d := after.minus(before)
	out["service.setup_cache_hit_ratio"] = ratio(d.setupHits, d.setupHits+d.setupMisses)
	out["service.format_conversions"] = d.formatConversions
	out["service.tune_store_hit_ratio"] = ratio(d.tuneStoreHits, d.tuneRequests)
	out["service.coalesced_share"] = ratio(d.batchedRequests, d.requests)
	out["service.mean_batch_size"] = ratio(d.batchedRequests+d.solo, d.blockSolves+d.solo)
	out["service.rejected"] = d.rejected
	out["gateway.affinity_hit_ratio"] = ratio(d.affinityHits, d.affinityHits+d.affinityMisses)
	out["gateway.failovers"] = d.failovers
	out["gateway.spills"] = d.spills
	out["gateway.retries"] = d.retries
}
