package dist

import (
	"fmt"

	"spcg/internal/fault"
	"spcg/internal/obs"
)

// Counts aggregates the structural events of a solver run — the quantities
// the paper's Table 1 reasons about.
type Counts struct {
	SpMVs          int
	PrecApplies    int
	Allreduces     int
	AllreduceVals  int // total float64 values reduced
	HaloExchanges  int
	LocalFlops     float64 // global FLOPs of local vector/matrix work
	LocalReduceOps float64 // global FLOPs spent producing reduction operands
	// RetriedMessages counts communication retries charged by the fault
	// model (0 unless Machine.Faults enables communication failures).
	RetriedMessages int
}

// eventKind tags recorded events for replay.
type eventKind uint8

const (
	evSpMV eventKind = iota
	evPrec
	evVector
	evReduceLocal
	evAllreduce
)

// event is one recorded cost-model event.
type event struct {
	kind    eventKind
	flops   float64 // evPrec: global flops; evVector/evReduceLocal: global flops
	bytes   float64 // evVector/evReduceLocal: global bytes
	values  int     // evAllreduce: payload; evPrec: halo count
	retries int     // fault-model retries drawn when the event was charged
}

// Tracker charges solver events against a Cluster's cost model and
// accumulates the simulated wall-clock time. A nil *Tracker is valid and
// charges nothing, so solvers can run untracked at zero cost.
//
// With recording enabled, the tracker also keeps the event stream so the
// same numerical run can be re-costed on clusters of different sizes
// (ReplayOn) — the solver's event sequence does not depend on the cluster,
// only its modeled cost does.
type Tracker struct {
	C      *Cluster
	Time   float64
	Counts Counts

	// Obs, when non-nil, mirrors the tracker's halo-exchange events into a
	// phase trace as counting spans (the solver wires it up from
	// Options.Trace). Halo exchanges exist only in the distributed model —
	// shared-memory runs move no halo bytes — so the tracker is the one
	// component that can attribute them.
	Obs *obs.Tracer

	record bool
	events []event
	// rng drives the fault model's retry draws (nil when disabled). Retry
	// counts are recorded per event, so replay re-prices — not re-draws —
	// them.
	rng *fault.Stream
}

// NewTracker returns a Tracker bound to c.
func NewTracker(c *Cluster) *Tracker {
	t := &Tracker{C: c}
	t.initFaults()
	return t
}

// NewRecordingTracker returns a Tracker that additionally records events
// for later ReplayOn.
func NewRecordingTracker(c *Cluster) *Tracker {
	t := &Tracker{C: c, record: true}
	t.initFaults()
	return t
}

// SpMVTime is the modeled time of one distributed sparse matrix-vector
// product: the local multiply on the most loaded rank (12 bytes per stored
// entry — value + column index — plus streaming the input and output rows)
// and the halo exchange that feeds it.
func (c *Cluster) SpMVTime() float64 {
	return c.Roofline(2*float64(c.MaxNNZ), 12*float64(c.MaxNNZ)+16*float64(c.MaxRows)) + c.HaloTime()
}

// PrecTime is the modeled time of one preconditioner application given its
// global flop count and internal halo exchanges (from precond.Interface).
// Bytes are estimated at 1.5 bytes per flop (streaming kernels).
func (c *Cluster) PrecTime(globalFlops float64, halos int) float64 {
	flops := globalFlops * c.MaxNNZShare()
	return c.Roofline(flops, 1.5*flops) + float64(halos)*c.HaloTime()
}

// price is the price list: the modeled time of one event on cluster c. The
// charge methods and ReplayOn both add exactly this value per event (and
// perfmodel.Predict multiplies SpMVTime and PrecTime by Table 1's counts), so
// replaying a recording on its own cluster reproduces Time bit-for-bit.
func (c *Cluster) price(e event) float64 {
	switch e.kind {
	case evSpMV:
		return c.SpMVTime() + retryCost(c, e.retries)
	case evPrec:
		return c.PrecTime(e.flops, e.values)
	case evVector, evReduceLocal:
		share := c.MaxRowShare()
		return c.Roofline(e.flops*share, e.bytes*share)
	case evAllreduce:
		return c.AllreduceTime(e.values) + retryCost(c, e.retries)
	}
	panic(fmt.Sprintf("dist: unpriced event kind %d", e.kind))
}

// charge adds one event's price to the clock and keeps the event when
// recording.
func (t *Tracker) charge(e event) {
	t.Time += t.C.price(e)
	if t.record {
		t.events = append(t.events, e)
	}
}

// ReplayOn recomputes the total modeled time of the recorded event stream
// on another cluster. Panics if the tracker was not recording.
func (t *Tracker) ReplayOn(c *Cluster) float64 {
	if !t.record {
		panic("dist: ReplayOn requires a recording tracker")
	}
	var total float64
	for _, e := range t.events {
		total += c.price(e)
	}
	return total
}

// SpMV charges one distributed sparse matrix-vector product (SpMVTime); its
// halo exchange can drop messages.
func (t *Tracker) SpMV() {
	if t == nil {
		return
	}
	t.Counts.SpMVs++
	t.Counts.HaloExchanges++
	t.Obs.Count(obs.PhaseHalo, 1)
	t.charge(event{kind: evSpMV, retries: t.drawRetries()})
}

// PrecApply charges one preconditioner application (PrecTime).
func (t *Tracker) PrecApply(globalFlops float64, halos int) {
	if t == nil {
		return
	}
	t.Counts.PrecApplies++
	t.Counts.HaloExchanges += halos
	if halos > 0 {
		t.Obs.Count(obs.PhaseHalo, int64(halos))
	}
	t.Counts.LocalFlops += globalFlops
	t.charge(event{kind: evPrec, flops: globalFlops, values: halos})
}

// VectorOp charges a local kernel over length-n data given *global* flop and
// byte totals, scaled to the most loaded rank's row share.
func (t *Tracker) VectorOp(globalFlops, globalBytes float64) {
	if t == nil {
		return
	}
	t.Counts.LocalFlops += globalFlops
	t.charge(event{kind: evVector, flops: globalFlops, bytes: globalBytes})
}

// ReduceLocal charges the local computation of reduction operands (the
// "local reductions" column of Table 1): dot-product style kernels of
// globalFlops total flops.
func (t *Tracker) ReduceLocal(globalFlops, globalBytes float64) {
	if t == nil {
		return
	}
	t.Counts.LocalReduceOps += globalFlops
	t.charge(event{kind: evReduceLocal, flops: globalFlops, bytes: globalBytes})
}

// Allreduce charges one global reduction of the given number of float64
// values.
func (t *Tracker) Allreduce(values int) {
	if t == nil {
		return
	}
	t.Counts.Allreduces++
	t.Counts.AllreduceVals += values
	t.charge(event{kind: evAllreduce, values: values, retries: t.drawRetries()})
}

// String summarizes the tracked run, reporting every Counts field.
func (t *Tracker) String() string {
	if t == nil {
		return "dist.Tracker(nil)"
	}
	return fmt.Sprintf("time=%.6fs spmv=%d prec=%d allreduce=%d(%d vals) halo=%d flops=%.3g reduceflops=%.3g retried=%d",
		t.Time, t.Counts.SpMVs, t.Counts.PrecApplies, t.Counts.Allreduces,
		t.Counts.AllreduceVals, t.Counts.HaloExchanges,
		t.Counts.LocalFlops, t.Counts.LocalReduceOps, t.Counts.RetriedMessages)
}
