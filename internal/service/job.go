package service

import (
	"cmp"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// State is a job's lifecycle position.
type State string

// Job lifecycle states. Queued and Running are transient; Done, Failed and
// Canceled are terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// ErrNotFinished reports a result request for a job that has not reached a
// terminal state.
var ErrNotFinished = errors.New("service: job not finished")

// StepView summarises one completed timestep of a running job — the
// payload of the per-step SSE events and the job's step history. Every
// boundary produces one; only some of them checkpoint (see cadence).
type StepView struct {
	// Step is the completed 0-based timestep; Steps the configured count.
	Step  int `json:"step"`
	Steps int `json:"steps"`
	// TallyTotal is the cumulative deposited weight-eV after this step.
	TallyTotal float64 `json:"tally_total"`
	// WallSeconds is the cumulative solver wallclock after this step.
	WallSeconds float64 `json:"wall_seconds"`
	// Alive, Census, Dead partition the bank after this step.
	Alive  int `json:"alive"`
	Census int `json:"census"`
	Dead   int `json:"dead"`
	// Checkpoint is the step boundary of the latest snapshot the job had
	// taken when this step was recorded — what GET /v1/jobs/{id}/snapshot
	// serves at least as fresh as. A coordinator pulls when it reads one
	// newer than the boundary it holds. 0 (omitted) while there is none.
	Checkpoint int `json:"checkpoint,omitempty"`
}

// ReplicaView summarises one completed replica of an ensemble job — the
// payload of the per-replica SSE events and the parent job's replica
// history.
type ReplicaView struct {
	// Replica is the completed 0-based replica; Replicas the ensemble
	// width.
	Replica  int `json:"replica"`
	Replicas int `json:"replicas"`
	// JobID names the child job that ran the replica.
	JobID string `json:"job_id"`
	// Cached reports a replica served from the result cache.
	Cached bool `json:"cached,omitempty"`
	// TallyTotal is the replica's deposited weight-eV; WallSeconds its
	// solver wallclock.
	TallyTotal  float64 `json:"tally_total"`
	WallSeconds float64 `json:"wall_seconds"`
	// Worker names the fleet worker the replica ran on, and Reschedules
	// counts its lease-expiry reassignments. Both absent outside a fleet
	// coordinator.
	Worker      string `json:"worker,omitempty"`
	Reschedules int    `json:"reschedules,omitempty"`
}

// Job is one simulation managed by the engine: a validated config, its
// identity (the fingerprint everything about it is stored under), and the
// lifecycle state machine. All mutable state is behind the mutex, which only
// the methods in this file take; the done channel closes exactly once when
// the job reaches a terminal state.
type Job struct {
	id  string
	key string // config fingerprint
	// cfg is the request, validated: Threads stays as asked, 0 meaning the
	// budget of whichever engine ends up solving it.
	cfg core.Config
	// tenant names the submitting tenant — the fair-share scheduling key
	// and the queue-wait metric label. AnonymousTenant when the engine
	// runs without authentication.
	tenant string
	// enqueued is stamped by Queue.Push; the queue-wait metric is the
	// pop-to-push delta.
	enqueued time.Time

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	// engine is where the terminal transition books the job: the lifetime
	// counters and a solved run's metrics (see finish).
	engine *Engine

	mu          sync.Mutex
	state       State
	cached      bool
	progress    core.Progress
	steps       []StepView
	resumedFrom int // step the solver resumed from; -1 for a fresh run
	// replicas and ensemble are the per-replica history and merged
	// statistics of an ensemble job (Config.Replicas > 1); empty/nil
	// otherwise.
	replicas []ReplicaView
	ensemble *stats.Ensemble
	// timings is the per-step wallclock attribution the worker's trace
	// hook records while solving; empty for cached jobs and ensemble
	// parents (their replicas carry the timings).
	timings []core.StepTiming
	// result is the finished result as the store filed it, shared with every
	// job served from the same one.
	result    *Filed
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time

	// ckpt is the job's latest checkpoint: the snapshot handed in at
	// submission, then whichever step boundary last replaced it — a local one
	// (retainSnap jobs only: a snapshot is bank-sized) or one a RemoteRunner
	// pulled. GET /v1/jobs/{id}/snapshot (which, without a durable store,
	// serves the first due boundary after its last read), CheckpointInFlight
	// and resumePoint read it; the terminal transition releases it, except on
	// a retainSnap job that ran here, because a coordinator's last pulls
	// arrive after done: that one goes when its result is first served (see
	// serve), the last thing a coordinator's attempt asks of it.
	retainSnap bool
	ckpt       checkpoint
	// pulled records that GET /snapshot served ckpt. It changes with ckpt,
	// under mu; the solving worker reads it without (see Engine.checkpoint).
	pulled atomic.Bool
	// worker and reschedules describe remote execution: the fleet worker
	// currently (or last) assigned the job, and how many times the shard
	// moved after its worker died. Both zero for locally solved jobs.
	worker      string
	reschedules int
	// warnings records non-fatal trouble the job survived — a failed
	// checkpoint write, a remote dispatch that fell back to local
	// execution — so clients see degraded durability instead of silence.
	warnings []string
}

// Status is an immutable snapshot of a job.
type Status struct {
	ID        string
	State     State
	Cached    bool
	Progress  core.Progress
	StepsDone int
	// Replicas is the ensemble width of an ensemble job (0 for plain
	// jobs); ReplicasDone counts the replicas merged so far.
	Replicas     int
	ReplicasDone int
	// ResumedFrom is the checkpointed step the run resumed at, -1 when it
	// started fresh.
	ResumedFrom int
	// Worker is the fleet worker the job ran (or is running) on, empty
	// for local execution; Reschedules counts how many times the shard
	// was moved to a new worker after its assigned worker died.
	Worker      string
	Reschedules int
	// Warnings lists the non-fatal trouble the job survived (failed
	// checkpoint writes, remote dispatch falling back to local).
	Warnings  []string
	Err       error
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
}

// checkpoint is a step-boundary snapshot and the boundary it was taken at;
// -1 for one that came from outside (handed in at submission, or pulled from
// a worker that may have moved on since), which only restoring it will tell.
type checkpoint struct {
	data []byte
	step int
}

// newJob builds a queued job of engine e, under e's context.
func newJob(e *Engine, id, key string, cfg core.Config, so SubmitOptions) *Job {
	j := &Job{
		id:          id,
		key:         key,
		cfg:         cfg,
		tenant:      cmp.Or(so.Tenant, AnonymousTenant),
		done:        make(chan struct{}),
		engine:      e,
		state:       StateQueued,
		resumedFrom: -1,
		submitted:   time.Now(),
		retainSnap:  so.RetainSnapshot,
		ckpt:        checkpoint{so.Snapshot, -1},
	}
	j.ctx, j.cancel = context.WithCancel(e.ctx)
	return j
}

// ID returns the engine-issued job identifier.
func (j *Job) ID() string { return j.id }

// Config returns the validated configuration the job was submitted with —
// the request. A result served from the store may have been computed under
// another execution strategy (see core.Result).
func (j *Job) Config() core.Config { return j.cfg }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job is terminal or ctx expires.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status()
}

// status is Status with j.mu held.
func (j *Job) status() Status {
	ens := 0
	if j.cfg.Replicas > 1 {
		ens = j.cfg.Replicas
	}
	return Status{
		ID:           j.id,
		State:        j.state,
		Cached:       j.cached,
		Progress:     j.progress,
		StepsDone:    len(j.steps),
		Replicas:     ens,
		ReplicasDone: len(j.replicas),
		ResumedFrom:  j.resumedFrom,
		Worker:       j.worker,
		Reschedules:  j.reschedules,
		Warnings:     append([]string(nil), j.warnings...),
		Err:          j.err,
		Submitted:    j.submitted,
		Started:      j.started,
		Finished:     j.finished,
	}
}

// since is the streaming subscriber's one read: the step views recorded
// after the first steps, the replica views after the first replicas (nil
// when nothing new arrived, so a poll costs O(new)), and the Status of the
// same instant — never older than the views beside it.
func (j *Job) since(steps, replicas int) ([]StepView, []ReplicaView, Status) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]StepView(nil), j.steps[min(steps, len(j.steps)):]...),
		append([]ReplicaView(nil), j.replicas[min(replicas, len(j.replicas)):]...),
		j.status()
}

// Steps returns the per-timestep results recorded so far, oldest first
// (never nil, so the wire encoding is always a JSON array). A resumed job's
// history starts at the checkpointed step, not zero.
func (j *Job) Steps() []StepView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]StepView{}, j.steps...)
}

// Replicas returns the per-replica results recorded so far, in replica
// order (never nil). Empty for non-ensemble jobs.
func (j *Job) Replicas() []ReplicaView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]ReplicaView{}, j.replicas...)
}

// Timings returns the per-step timing spans recorded while solving, oldest
// first. Empty for cached jobs and ensemble parents. A resumed job's
// timings start at the checkpointed step.
func (j *Job) Timings() []core.StepTiming {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]core.StepTiming(nil), j.timings...)
}

// Snapshot returns the job's latest checkpoint and the step it was taken at;
// nil when the job was not seeded and does not retain snapshots, has not
// reached a boundary yet, or has released it — at its end, or when its result
// was first served.
func (j *Job) Snapshot() ([]byte, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ckpt.data, j.ckpt.step
}

// pull is Snapshot for GET /snapshot, which marks the checkpoint pulled.
func (j *Job) pull() ([]byte, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.pulled.Store(true)
	return j.ckpt.data, j.ckpt.step
}

// Result returns the completed result. It fails with ErrNotFinished while
// the job is in flight, the run's own error for a failed job, and a
// cancellation error for a canceled one. The engine keeps a result's cells as
// their non-zero runs: the first call builds the dense cells, and every job
// served from the same stored result returns that same *core.Result after.
func (j *Job) Result() (*core.Result, error) {
	j.mu.Lock()
	res, err := j.outcome()
	j.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return res.Result(), nil
}

// serve is GET /result's read, and an ensemble parent's of its replicas: the
// result as filed, dense cells not built. A finished job's result being served
// is the last thing a coordinator's attempt asks of its worker — its pulls all
// happen before — so the job's checkpoint goes here; /snapshot answers 404
// from then on.
func (j *Job) serve() (*Filed, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	res, err := j.outcome()
	if err == nil {
		j.ckpt = checkpoint{}
	}
	return res, err
}

// outcome is what Result reports, with j.mu held.
func (j *Job) outcome() (*Filed, error) {
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateFailed, StateCanceled:
		return nil, j.err
	default:
		return nil, ErrNotFinished
	}
}

// Ensemble returns the merged ensemble statistics of a finished ensemble
// job, nil for single-run jobs or while replicas are still in flight.
func (j *Job) Ensemble() *stats.Ensemble {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ensemble
}

// start moves a queued job to running; false if it was canceled meanwhile.
func (j *Job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// setProgress is the core.ProgressFunc the worker threads into RunCtx.
func (j *Job) setProgress(p core.Progress) {
	j.mu.Lock()
	j.progress = p
	j.mu.Unlock()
}

// addStep records a completed timestep, advertising the boundary of the
// checkpoint the job holds by now.
func (j *Job) addStep(v StepView) {
	j.mu.Lock()
	v.Checkpoint = max(j.ckpt.step, 0)
	j.steps = append(j.steps, v)
	j.mu.Unlock()
}

// addTiming is the core.TraceFunc the worker installs on its simulation.
func (j *Job) addTiming(st core.StepTiming) {
	j.mu.Lock()
	j.timings = append(j.timings, st)
	j.mu.Unlock()
}

// addReplica records a completed replica and advances the parent progress.
// Replica reschedules accumulate onto the parent, so an ensemble view
// reports the total failover count across its shards.
func (j *Job) addReplica(v ReplicaView) {
	j.mu.Lock()
	j.replicas = append(j.replicas, v)
	j.progress = core.Progress{Step: len(j.replicas), Steps: v.Replicas}
	j.reschedules += v.Reschedules
	j.mu.Unlock()
}

// addWarning records non-fatal trouble on the job, deduplicating exact
// repeats (a flaky checkpoint directory must not grow the list per step).
func (j *Job) addWarning(w string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, have := range j.warnings {
		if have == w {
			return
		}
	}
	j.warnings = append(j.warnings, w)
}

// retain moves the job's latest checkpoint to the boundary step.
func (j *Job) retain(data []byte, step int) {
	j.mu.Lock()
	j.ckpt = checkpoint{data, step}
	j.pulled.Store(false)
	j.mu.Unlock()
}

// resumed records the checkpointed step the solver resumed at.
func (j *Job) resumed(step int) {
	j.mu.Lock()
	j.resumedFrom = step
	j.mu.Unlock()
}

// applyRemoteUpdate records a RemoteRunner's report but its snapshot (the
// engine files that): worker assignment and reschedule count on the job view,
// forwarded steps on the step history, kept monotonic across worker
// reconnects and rescheduled resumes.
func (j *Job) applyRemoteUpdate(u RemoteUpdate) {
	j.mu.Lock()
	if u.Worker != "" {
		j.worker = u.Worker
	}
	if u.Reschedules > j.reschedules {
		j.reschedules = u.Reschedules
	}
	step := u.Step
	if step != nil && len(j.steps) > 0 && step.Step <= j.steps[len(j.steps)-1].Step {
		step = nil // duplicate replay after a reconnect or reschedule
	}
	if step != nil {
		j.steps = append(j.steps, *step)
		j.progress = core.Progress{Step: step.Step, Steps: step.Steps}
	}
	j.mu.Unlock()
}

// finish is the one terminal transition: it moves the job from the state from
// ("" for either non-terminal one) to the terminal state to, exactly once,
// and reports whether this call won. A call that names StateQueued loses to a
// worker's start, so a cancel of a queued job and the run of it never both
// happen. The engine's lifetime counter and a solved run's metrics are
// recorded before the state change publishes the job, so whoever sees it done
// (a waiter, a scrape right after) sees those too.
func (j *Job) finish(from, to State, res *Filed, ens *stats.Ensemble, err error, cached bool) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || (from != "" && j.state != from) {
		return false
	}
	e := j.engine
	switch to {
	case StateDone:
		e.completed.Add(1)
		// Ensemble parents are not runs: each replica passes through here
		// itself, so observing the parent would count every event twice.
		if !cached && j.cfg.Replicas <= 1 {
			dur := time.Since(j.started)
			e.observeRunDuration(dur)
			e.metrics.observeRun(res.res, dur)
		}
	case StateFailed:
		e.failed.Add(1)
	case StateCanceled:
		e.canceled.Add(1)
	}
	j.state = to
	j.result = res
	j.ensemble = ens
	j.err = err
	j.cached = cached
	j.finished = time.Now()
	if res != nil {
		// A finished job reads 100% regardless of sampling jitter.
		j.progress = core.Progress{
			Step:  res.res.Config.Steps - 1,
			Steps: res.res.Config.Steps,
			Done:  1,
			Total: 1,
		}
	}
	if !j.retainSnap || j.worker != "" {
		// Nothing resumes a terminal job, and the engine remembers it for a
		// while (see Job.ckpt for the exception, and serve for its end).
		j.ckpt = checkpoint{}
	}
	close(j.done)
	// Release the job's context registration on the engine context; a
	// long-lived engine must not accumulate one child per finished job.
	j.cancel()
	return true
}
