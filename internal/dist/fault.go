package dist

import "spcg/internal/fault"

// FaultModel configures system-level fault charging on the virtual cluster,
// substituting for what an MPI run would observe under ULFM-style fault
// tolerance: transient communication failures cost a detection timeout plus
// exponentially backed-off retries, and straggler ranks stretch the
// bulk-synchronous local phases. The zero value is a guaranteed no-op — all
// modeled times stay bit-identical to a fault-free machine.
//
// Failures are transient: an event that exhausts MaxRetries still completes
// (it has paid the full retry cost), so the model never deadlocks. The retry
// draws are seeded per tracker and recorded in the event stream, so ReplayOn
// re-prices the *same* retries on a different cluster — behaviour and cost
// stay separated exactly as for the fault-free events.
type FaultModel struct {
	// CommFailProb is the per-attempt probability that a collective or halo
	// message fails and must be retried.
	CommFailProb float64
	// MaxRetries caps the retry attempts charged per event (default 5 when
	// comm faults are enabled).
	MaxRetries int
	// Timeout is the time (s) to detect one failed attempt (default 50·α of
	// the machine being charged).
	Timeout float64
	// BackoffBase is the initial retry backoff (s); attempt i additionally
	// waits BackoffBase·2^i (default 10·α of the machine being charged).
	BackoffBase float64
	// StragglerFactor ≥ 1 multiplies the most-loaded-rank roofline time,
	// modeling a persistently slow rank that every bulk-synchronous step
	// waits for. 0 or 1 disables it.
	StragglerFactor float64
	// Seed seeds the per-tracker retry stream (default 1 when enabled).
	Seed uint64
}

// commEnabled reports whether communication-fault charging is active.
func (f FaultModel) commEnabled() bool { return f.CommFailProb > 0 }

// maxRetries returns the retry cap with its default applied.
func (f FaultModel) maxRetries() int {
	if f.MaxRetries > 0 {
		return f.MaxRetries
	}
	return 5
}

// timing returns the timeout and backoff base with defaults derived from the
// charged machine's latency, so replaying retry-bearing events on a cluster
// with an unset fault model still prices them deterministically.
func (f FaultModel) timing(alpha float64) (timeout, backoff float64) {
	timeout, backoff = f.Timeout, f.BackoffBase
	if timeout <= 0 {
		timeout = 50 * alpha
	}
	if backoff <= 0 {
		backoff = 10 * alpha
	}
	return
}

// retryCost prices `retries` failed attempts of one event on cluster c:
// each failed attempt costs the detection timeout plus exponential backoff.
func retryCost(c *Cluster, retries int) float64 {
	if retries <= 0 {
		return 0
	}
	timeout, backoff := c.M.Faults.timing(c.M.NetLatency)
	total := 0.0
	for i := 0; i < retries; i++ {
		total += timeout + backoff*float64(int(1)<<uint(i))
	}
	return total
}

// initFaults seeds the tracker's retry stream from its cluster's machine.
func (t *Tracker) initFaults() {
	fm := t.C.M.Faults
	if !fm.commEnabled() {
		return
	}
	seed := fm.Seed
	if seed == 0 {
		seed = 1
	}
	t.rng = fault.NewStream(seed)
}

// drawRetries draws the number of failed attempts for one communication
// event (0 when comm faults are disabled) and accounts them.
func (t *Tracker) drawRetries() int {
	if t.rng == nil {
		return 0
	}
	fm := t.C.M.Faults
	retries := 0
	for retries < fm.maxRetries() && t.rng.Unit() < fm.CommFailProb {
		retries++
	}
	t.Counts.RetriedMessages += retries
	return retries
}
