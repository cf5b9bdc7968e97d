package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// opRecord is one timed op: one solve, or one request from send to decoded
// reply.
type opRecord struct {
	kind string
	dur  time.Duration
	ok   bool
	// solveMS is the solve time the server reported (serving ops only).
	solveMS float64
}

// instance is one set-up copy of a workload, ready to run ops. Op i of the
// schedule is a pure function of (seed, i), so the same seed replays the
// same inputs; the program under test sees only those inputs.
type instance interface {
	// clients is the closed-loop concurrency: each client issues its next op
	// only when the previous one has returned.
	clients() int
	// blockLen is the length of one schedule block. Every block holds the
	// workload's full op mix, and sections end on a block boundary so the
	// mix measured does not depend on how fast the code is.
	blockLen() int
	// do runs op i on the given client, checks its result, and records spans
	// under tr when tr is non-nil.
	do(i, client int, tr *tracer) opRecord
	close()
}

// workload is a named way to build instances. BENCHMARK.json and README.md
// say why each exists.
type workload struct {
	name  string
	setup func(seed int64, smoke bool) (instance, error)
}

var workloads = []workload{
	{"solve_paper", setupSolvePaper}, // library path, paper-size matrix: kernels
	{"spmd_sync", setupSpmdSync},     // message-passing runtime: synchronisation
	{"serve_warm", setupServeWarm},   // full stack, every cache hits: request overheads
	{"serve_churn", setupServeChurn}, // full stack, caches evict: set-up on the request path
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupRepeats is how many times a run sets the workload up from cold; the
// last copy serves the timed section and setup_s is the median.
const setupRepeats = 5

// section is the outcome of one closed-loop stretch of the schedule.
type section struct {
	ops  []opRecord
	wall time.Duration
	next int // schedule index after the last op
}

// runSection runs the schedule from op first for at least the given time
// and at least one block, then to the end of the block in flight. With one
// client the wall time is
// the sum of the op times, which leaves out the benchmark's own checking;
// with several it is the elapsed time.
func runSection(inst instance, first int, d time.Duration, tr *tracer) section {
	block := int64(inst.blockLen())
	nc := inst.clients()
	base := int64(first)
	var next, stop atomic.Int64
	next.Store(base)
	stop.Store(math.MaxInt64)
	roundUp := func(i int64) int64 { return base + (i-base+block-1)/block*block }

	perClient := make([][]opRecord, nc)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i > base && stop.Load() == math.MaxInt64 && !time.Now().Before(deadline) {
					// Every index handed out so far is below next, so ending
					// at the next block boundary at or above it loses no op
					// another client already holds.
					end := roundUp(i)
					if last := next.Load() - 1; last > i {
						end = roundUp(last + 1)
					}
					stop.CompareAndSwap(math.MaxInt64, end)
				}
				if i >= stop.Load() {
					return
				}
				perClient[c] = append(perClient[c], inst.do(int(i), c, tr))
			}
		}(c)
	}
	wg.Wait()
	sec := section{wall: time.Since(start), next: int(stop.Load())}
	for _, ops := range perClient {
		sec.ops = append(sec.ops, ops...)
	}
	if nc == 1 {
		sec.wall = 0
		for _, op := range sec.ops {
			sec.wall += op.dur
		}
	}
	return sec
}

func (s section) failed() int {
	n := 0
	for _, op := range s.ops {
		if !op.ok {
			n++
		}
	}
	return n
}

func (s section) durationsMS() []float64 {
	out := make([]float64, len(s.ops))
	for i, op := range s.ops {
		out[i] = float64(op.dur) / float64(time.Millisecond)
	}
	return out
}

func (s section) opsPerSecond() float64 { return ratio(float64(len(s.ops)), s.wall.Seconds()) }

// segmentLength is how much of the schedule runs between two speed probes:
// short enough that the machine's speed is about constant across it.
const segmentLength = time.Second

// measured is a stretch of the schedule run in segments with a speed probe
// on either side of each, so every time in it is also known at reference
// speed (see calib.go).
type measured struct {
	section
	// refMS is each op's duration at reference speed, parallel to ops.
	refMS []float64
	// refWall is the wall time at reference speed, in seconds.
	refWall float64
	// index is the speed index of each segment.
	index []float64
	// heldMB is the memory the runtime held from the OS at the end of each
	// segment, in MiB.
	heldMB []float64
}

func runMeasured(inst instance, first int, d time.Duration, tr *tracer) measured {
	m := measured{section: section{next: first}}
	before := speedIndex()
	for m.wall < d {
		length := d - m.wall
		if length > segmentLength {
			length = segmentLength
		}
		seg := runSection(inst, m.next, length, tr)
		after := speedIndex()
		idx := (before + after) / 2
		before = after
		m.ops = append(m.ops, seg.ops...)
		m.wall += seg.wall
		m.next = seg.next
		m.refWall += seg.wall.Seconds() / idx
		m.index = append(m.index, idx)
		m.heldMB = append(m.heldMB, heldMemoryMB())
		for _, op := range seg.ops {
			m.refMS = append(m.refMS, float64(op.dur)/float64(time.Millisecond)/idx)
		}
	}
	return m
}

func (m measured) opsPerSecond() float64 { return ratio(float64(len(m.ops)), m.refWall) }

// kindPercentile is the p-th percentile of op time at reference speed within
// each op kind, as the geometric mean over the kinds. A schedule mixes kinds
// whose times differ tenfold (a PCG solve on a small grid, a CA-PCG solve on
// a large one), so a percentile of the pooled times sits on the edge between
// two kinds and jumps from run to run; within a kind it sits among like
// times, and the geometric mean gives every kind's slowdown the same weight.
func (m measured) kindPercentile(p float64) float64 {
	byKind := map[string][]float64{}
	for i, op := range m.ops {
		byKind[op.kind] = append(byKind[op.kind], m.refMS[i])
	}
	logSum := 0.0
	for _, ms := range byKind {
		logSum += math.Log(percentile(ms, p))
	}
	if len(byKind) == 0 {
		return 0
	}
	return math.Exp(logSum / float64(len(byKind)))
}

// heldMemoryMB is what the Go runtime holds from the OS right now: Sys less
// what it has given back, less the benchmark's own calibration arrays.
func heldMemoryMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const own = benchProcs * 3 * tickElems * 8
	return float64(ms.Sys-ms.HeapReleased-own) / (1 << 20)
}

// metric is one reported number. n is the sample count behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is what one run reports.
type result struct {
	workload  string
	attempted int
	failed    int
	metrics   []metric
	// notes are printed for the reader but are not part of the result
	// object: wall-clock values before the speed correction, and the
	// correction itself.
	notes []metric
}

// runUntraced is the run that end-to-end metrics come from: set up from
// cold setupRepeats times, warm one block, then time the schedule. Times are
// at reference speed; the raw ones are printed beside them for the reader.
func runUntraced(w workload, seed int64, seconds float64, smoke bool) (result, error) {
	res := result{workload: w.name}
	var inst instance
	var setups, rawSetups []float64
	before := speedIndex()
	for k := 0; k < setupRepeats; k++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed, smoke); err != nil {
			return res, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		raw := time.Since(t0).Seconds()
		after := speedIndex()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw/((before+after)/2))
		before = after
	}
	defer inst.close()

	warm := runSection(inst, 0, 0, nil)
	timed := runMeasured(inst, warm.next, secondsToDuration(seconds), nil)

	n := len(timed.ops)
	res.attempted = n
	res.failed = timed.failed()
	res.metrics = []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"ops_per_s", timed.opsPerSecond(), "1/s", n},
		{"op_p50_ms", timed.kindPercentile(50), "ms", n},
		{"op_p90_ms", timed.kindPercentile(90), "ms", n},
		{"mem_sys_mb", mean(timed.heldMB), "MiB", len(timed.heldMB)},
	}
	raw := timed.durationsMS()
	res.notes = []metric{
		{"speed_index", median(timed.index), "ratio", len(timed.index)},
		{"raw_setup_s", median(rawSetups), "s", len(rawSetups)},
		{"raw_ops_per_s", timed.section.opsPerSecond(), "1/s", n},
		{"raw_pooled_p50_ms", percentile(raw, 50), "ms", n},
		{"raw_pooled_p90_ms", percentile(raw, 90), "ms", n},
	}
	return res, nil
}

func secondsToDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
