package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"spcg/internal/obs"
	"spcg/internal/solver"
	"spcg/internal/tune"
)

// JobState is the lifecycle of one solve request.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
	// JobStagnated is a terminal state distinct from cancellation: the
	// solver stopped the solve because its residual had stopped improving
	// (solver.SiteStagnation), well before the wall-clock deadline.
	JobStagnated JobState = "stagnated"
)

// terminal reports whether a state ends the job lifecycle.
func (s JobState) terminal() bool {
	switch s {
	case JobDone, JobFailed, JobCancelled, JobStagnated:
		return true
	}
	return false
}

// SolveRequest is the JSON body of POST /solve.
type SolveRequest struct {
	Matrix  string `json:"matrix"`            // registry name or generator spec
	Method  string `json:"method"`            // pcg|pcg3|spcg|spcgmon|capcg|capcg3|adaptive
	Precond string `json:"precond,omitempty"` // jacobi (default), identity, ic0, ssor[:w], blockjacobi[:k], chebyshev[:d]
	S       int    `json:"s,omitempty"`       // s-step block size for s-step methods
	Basis   string `json:"basis,omitempty"`   // monomial|newton|chebyshev (s-step methods)

	Tol       float64 `json:"tol,omitempty"`
	MaxIters  int     `json:"max_iters,omitempty"`
	RHS       string  `json:"rhs,omitempty"`        // "ones" (default), "random[:seed]", "sin"
	TimeoutMS int     `json:"timeout_ms,omitempty"` // per-job deadline; 0 = server default; at most a day
	Async     bool    `json:"async,omitempty"`      // enqueue and return a job id immediately
	Trace     bool    `json:"trace,omitempty"`      // return a per-phase breakdown
	// NoBatch is accepted and ignored: every request is solved alone. The
	// benchmark still sets it until ROADMAP item 3 drops it.
	NoBatch bool `json:"no_batch,omitempty"`

	// RequestID is an optional idempotency key. Submitting the same
	// request_id again returns the existing job instead of running a second
	// solve — this is what makes gateway failover retries safe.
	RequestID string `json:"request_id,omitempty"`
}

// SolveResult is the terminal payload of a job.
type SolveResult struct {
	Converged       bool    `json:"converged"`
	Iterations      int     `json:"iterations"`
	FinalRelative   float64 `json:"final_relative"`
	TrueRelResidual float64 `json:"true_rel_residual"`
	MVProducts      int     `json:"mv_products"`
	PrecApplies     int     `json:"prec_applies"`
	Breakdown       string  `json:"breakdown,omitempty"`
	Error           string  `json:"error,omitempty"`
	SolveMS         float64 `json:"solve_ms"`
	XNorm           float64 `json:"x_norm"`
	// Method is the solver that ran: the request's method, or for a
	// method:"auto" request the tuner's choice.
	Method string `json:"method,omitempty"`
	// Format is always "csr", the one storage solves run on; the benchmark
	// still reads it until ROADMAP items 3(a) and 4 drop it.
	Format string `json:"format,omitempty"`
	// Phases is the per-phase time/count breakdown of the solve, present
	// when the request set "trace": true.
	Phases []obs.PhaseStat `json:"phases,omitempty"`
	// TuneSource records how a method:"auto" request was resolved: "store"
	// (persisted tuned winner), "seed" (the seeded plan's PCG candidate served
	// while background trials ran) or "fallback" (seeding failed; safe PCG
	// floor).
	TuneSource string `json:"tune_source,omitempty"`
	// TunedConfig is the configuration the autotuner selected for a
	// method:"auto" request.
	TunedConfig *tune.Candidate `json:"tuned_config,omitempty"`
}

// JobStatus is the JSON document served for one job.
type JobStatus struct {
	ID        string       `json:"id"`
	State     JobState     `json:"state"`
	Matrix    string       `json:"matrix"`
	Method    string       `json:"method"`
	Precond   string       `json:"precond"`
	Submitted time.Time    `json:"submitted"`
	Started   *time.Time   `json:"started,omitempty"`
	Finished  *time.Time   `json:"finished,omitempty"`
	Result    *SolveResult `json:"result,omitempty"`
}

// job is the internal representation of one admitted request.
type job struct {
	id  string
	req SolveRequest

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed exactly once when the job reaches a terminal state

	mu        sync.Mutex
	state     JobState
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    *SolveResult
}

func (j *job) setRunning(now time.Time) {
	j.mu.Lock()
	if j.state == JobQueued {
		j.state = JobRunning
		j.started = now
	}
	j.mu.Unlock()
}

// finish moves the job to a terminal state. Only the first call wins, and
// that caller (Server.finishJob) closes the done channel once its accounting
// is settled.
func (j *job) finish(state JobState, res *SolveResult, now time.Time) bool {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.result = res
	j.finished = now
	j.mu.Unlock()
	j.cancel() // release the context watcher; harmless if already cancelled
	return true
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Matrix:    j.req.Matrix,
		Method:    j.req.Method,
		Precond:   j.req.Precond,
		Submitted: j.submitted,
		Result:    j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// doneJobsKept is how many finished jobs a jobStore retains.
const doneJobsKept = 512

// jobStore indexes jobs by id and bounds memory by evicting the oldest
// finished jobs beyond doneJobsKept.
type jobStore struct {
	mu      sync.Mutex
	seq     int64
	jobs    map[string]*job
	byReqID map[string]*job // request_id → job, for idempotent resubmission
	doneIDs []string        // finished jobs in completion order, oldest first
}

func newJobStore() *jobStore {
	return &jobStore{jobs: map[string]*job{}, byReqID: map[string]*job{}}
}

func (s *jobStore) newJob(req SolveRequest, parent context.Context, timeout time.Duration) *job {
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(parent, timeout)
	} else {
		ctx, cancel = context.WithCancel(parent)
	}
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("job-%d", s.seq)
	j := &job{
		id:        id,
		req:       req,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     JobQueued,
		submitted: time.Now(),
	}
	s.jobs[id] = j
	if req.RequestID != "" {
		s.byReqID[req.RequestID] = j
	}
	s.mu.Unlock()
	return j
}

func (s *jobStore) get(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// getByRequestID returns the job admitted under an idempotency key, if it is
// still retained.
func (s *jobStore) getByRequestID(reqID string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byReqID[reqID]
}

// markDone records completion for eviction ordering and trims old entries.
func (s *jobStore) markDone(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.doneIDs = append(s.doneIDs, id)
	for len(s.doneIDs) > doneJobsKept {
		old := s.doneIDs[0]
		s.doneIDs = s.doneIDs[1:]
		if j := s.jobs[old]; j != nil && j.req.RequestID != "" {
			delete(s.byReqID, j.req.RequestID)
		}
		delete(s.jobs, old)
	}
}

// statsToResult converts solver output into the wire form of a job result.
func statsToResult(stats *solver.Stats, err error, elapsed time.Duration, xnorm float64) *SolveResult {
	res := &SolveResult{
		Format:  "csr",
		SolveMS: float64(elapsed.Microseconds()) / 1000,
		XNorm:   xnorm,
	}
	if stats != nil {
		res.Converged = stats.Converged
		res.Iterations = stats.Iterations
		res.FinalRelative = stats.FinalRelative
		res.TrueRelResidual = stats.TrueRelResidual
		res.MVProducts = stats.MVProducts
		res.PrecApplies = stats.PrecApplies
		res.Phases = stats.Phases
		if stats.Breakdown != nil {
			res.Breakdown = stats.Breakdown.Error()
		}
	}
	if err != nil {
		res.Error = err.Error()
	}
	return res
}
