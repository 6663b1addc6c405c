package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/scene"
	"repro/internal/service/blob"
	"repro/internal/stats"
	"repro/internal/tally"
	"repro/internal/telemetry"
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

// ErrUnknownJob reports a lookup of an ID the engine never issued.
var ErrUnknownJob = errors.New("service: unknown job")

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

// Job is one simulation managed by the engine: a validated config, its
// identity (the fingerprint everything about it is stored under), and the
// lifecycle state machine. All mutable state is behind the mutex; the done
// channel closes exactly once when the job reaches a terminal state.
type Job struct {
	id  string
	key string // config fingerprint; empty for uncacheable configs
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
	timings   []core.StepTiming
	result    *core.Result
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time

	// ckpt is the job's latest checkpoint: the snapshot handed in at
	// submission, then whichever step boundary last replaced it — a local one
	// (retainSnap jobs only: a snapshot is bank-sized) or one a RemoteRunner
	// pulled. GET /v1/jobs/{id}/snapshot, CheckpointInFlight and acquire read
	// it; the terminal transition releases it, except on a retainSnap job
	// that ran here, because a coordinator's last pulls arrive after done.
	retainSnap bool
	ckpt       checkpoint
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

// ID returns the engine-issued job identifier.
func (j *Job) ID() string { return j.id }

// Config returns the validated configuration the job was submitted with —
// the request. A result served from the store may have been computed under
// another execution strategy (see core.Result).
func (j *Job) Config() core.Config { return j.cfg }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
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

// checkpoint is a step-boundary snapshot and the boundary it was taken at;
// -1 for one that came from outside (handed in at submission, or pulled from
// a worker that may have moved on since), which only restoring it will tell.
type checkpoint struct {
	data []byte
	step int
}

// Snapshot returns the job's latest checkpoint and the step it was taken at;
// nil when the job was not seeded and does not retain snapshots, has not
// reached a boundary yet, or has released it at its end.
func (j *Job) Snapshot() ([]byte, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ckpt.data, j.ckpt.step
}

// setCheckpoint moves the job's latest checkpoint to a newer boundary; nil
// data releases it. Callers hold j.mu.
func (j *Job) setCheckpoint(data []byte, step int) {
	j.ckpt = checkpoint{data, step}
}

// applyRemoteUpdate is the callback a RemoteRunner drives while a shard
// runs remotely: worker assignment and reschedule count land on the job
// view, forwarded step results land on the step history (guarded to stay
// monotonic across worker reconnects and rescheduled resumes), and the
// latest pulled snapshot becomes the job's checkpoint, the local resume
// point should the fleet degrade to in-process execution.
func (j *Job) applyRemoteUpdate(u RemoteUpdate) {
	j.mu.Lock()
	if u.Worker != "" {
		j.worker = u.Worker
	}
	if u.Reschedules > j.reschedules {
		j.reschedules = u.Reschedules
	}
	if u.Snapshot != nil {
		j.setCheckpoint(u.Snapshot, -1)
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

// Steps returns the per-timestep results recorded so far, oldest first
// (never nil, so the wire encoding is always a JSON array). A resumed job's
// history starts at the checkpointed step, not zero.
func (j *Job) Steps() []StepView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]StepView{}, j.steps...)
}

// StepsFrom returns only the step results recorded after the first n, so a
// streaming subscriber polls at O(new) cost instead of copying the whole
// history every tick; nil when nothing new arrived.
func (j *Job) StepsFrom(n int) []StepView {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n >= len(j.steps) {
		return nil
	}
	return append([]StepView(nil), j.steps[n:]...)
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

// Timings returns the per-step timing spans recorded while solving, oldest
// first. Empty for cached jobs and ensemble parents. A resumed job's
// timings start at the checkpointed step.
func (j *Job) Timings() []core.StepTiming {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]core.StepTiming(nil), j.timings...)
}

// Wait blocks until the job is terminal or ctx expires.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Result returns the completed result. It fails with ErrNotFinished while
// the job is in flight, the run's own error for a failed job, and a
// cancellation error for a canceled one.
func (j *Job) Result() (*core.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateFailed, StateCanceled:
		return nil, j.err
	default:
		return nil, ErrNotFinished
	}
}

// setProgress is the core.ProgressFunc the worker threads into RunCtx.
func (j *Job) setProgress(p core.Progress) {
	j.mu.Lock()
	j.progress = p
	j.mu.Unlock()
}

// finish moves the job to a terminal state exactly once, reporting whether
// this call won the transition. The lifetime counter and a solved run's
// metrics are recorded before the state change publishes the job, so whoever
// sees it done (a waiter, a scrape right after) sees those too.
func (e *Engine) finish(j *Job, state State, res *core.Result, ens *stats.Ensemble, err error, cached bool) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return e.finishLocked(j, state, res, ens, err, cached)
}

// finishLocked is finish with j.mu already held.
func (e *Engine) finishLocked(j *Job, state State, res *core.Result, ens *stats.Ensemble, err error, cached bool) bool {
	if j.state.Terminal() {
		return false
	}
	switch state {
	case StateDone:
		e.completed.Add(1)
		// Ensemble parents are not runs: each replica passes through here
		// itself, so observing the parent would count every event twice.
		if !cached && j.cfg.Replicas <= 1 {
			dur := time.Since(j.started)
			e.observeRunDuration(dur)
			e.metrics.observeRun(res, dur)
		}
	case StateFailed:
		e.failed.Add(1)
	case StateCanceled:
		e.canceled.Add(1)
	}
	j.state = state
	j.result = res
	j.ensemble = ens
	j.err = err
	j.cached = cached
	j.finished = time.Now()
	if res != nil {
		// A finished job reads 100% regardless of sampling jitter.
		j.progress = core.Progress{
			Step:  res.Config.Steps - 1,
			Steps: res.Config.Steps,
			Done:  1,
			Total: 1,
		}
	}
	if !j.retainSnap || j.worker != "" {
		// Nothing resumes a terminal job, and the engine keeps every job it
		// ever ran (see Job.ckpt for the exception).
		j.setCheckpoint(nil, 0)
	}
	close(j.done)
	// Release the job's context registration on the engine context; a
	// long-lived engine must not accumulate one child per finished job.
	j.cancel()
	return true
}

// Options configures an engine.
type Options struct {
	// Shards is the worker-pool width: that many worker goroutines pop the
	// engine's one queue, each taking the next runnable job the moment it
	// is free. Identical submissions still run one after another (the queue
	// holds a fingerprint while a worker runs it), so the second is served
	// the first's result instead of racing a duplicate solve.
	// 0 means min(4, GOMAXPROCS).
	Shards int
	// QueueDepth is the admitted backlog per worker: the queue holds up to
	// Shards × QueueDepth jobs. 0 means 64.
	QueueDepth int
	// CacheEntries bounds the result cache. 0 means 128; negative
	// disables caching.
	CacheEntries int
	// ThreadsPerJob is the solver thread count this engine gives the jobs
	// it solves that leave Config.Threads at 0, so concurrent simulations
	// share the machine instead of each claiming every core. 0 means
	// GOMAXPROCS/Shards, floored at 1.
	ThreadsPerJob int
	// Blobs, when non-nil, is the engine's durable storage: checkpoints
	// land under "checkpoints/<fingerprint>" and completed results under
	// "results/<fingerprint>", so any engine opened over the same store —
	// this process restarted, or a replica behind a load balancer sharing
	// a volume — resumes in-flight work and serves finished work without
	// recomputing. The store is the precondition for stateless workers.
	Blobs blob.Store
	// DefaultScene, when non-nil, is the scene applied by the HTTP layer
	// to submissions that name neither a problem nor an inline scene —
	// how cmd/neutral-serve's -scene flag sets a server-wide default
	// problem. It must be validated (scene.LoadFile and Parse validate).
	DefaultScene *scene.Scene
	// Registry, when non-nil, is the telemetry registry the engine
	// registers its metric families on — shared when a process hosts
	// several instrumented subsystems. Nil means a private registry;
	// either way Engine.Registry() is what GET /metrics serves.
	Registry *telemetry.Registry
	// Remote, when non-nil, lets the engine dispatch eligible jobs to a
	// fleet of remote worker processes (internal/fleet.Coordinator). A
	// job is eligible when it is cacheable (canonical fingerprint) and
	// does not ask to keep its bank — the result wire format carries
	// tallies and counters, not banks. Dispatch failing with ErrNoWorkers
	// degrades gracefully to local in-process execution, resuming from
	// the last remotely pulled checkpoint when one exists.
	Remote RemoteRunner
}

// RemoteUpdate is one observation a RemoteRunner reports while a shard runs
// remotely. Zero-valued fields mean "no change".
type RemoteUpdate struct {
	// Worker is the fleet worker currently assigned the shard.
	Worker string
	// Reschedules is the cumulative number of times the shard was moved
	// to a new worker after its assigned worker died.
	Reschedules int
	// Step is a completed remote timestep to forward onto the job's step
	// history (and its SSE stream).
	Step *StepView
	// Snapshot is the latest fingerprint-keyed checkpoint pulled from the
	// worker — the resume point for rescheduling and local fallback.
	Snapshot []byte
}

// RemoteRunner executes one job shard on a remote worker fleet. RunShard
// blocks until the shard completes somewhere, reporting assignment changes,
// forwarded steps and checkpoints through update. It fails with an error
// wrapping ErrNoWorkers when no healthy worker is reachable (the engine
// then runs the job locally), with ctx's error on cancellation, and with
// the run's own error when the shard failed deterministically.
type RemoteRunner interface {
	RunShard(ctx context.Context, cfg core.Config, update func(RemoteUpdate)) (*core.Result, error)
}

// ErrNoWorkers reports that remote dispatch found no healthy fleet worker;
// the engine treats it as "degrade to local execution", never as a job
// failure.
var ErrNoWorkers = errors.New("service: no fleet workers reachable")

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = min(4, runtime.GOMAXPROCS(0))
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	switch {
	case o.CacheEntries == 0:
		o.CacheEntries = 128
	case o.CacheEntries < 0:
		o.CacheEntries = 0
	}
	if o.ThreadsPerJob <= 0 {
		o.ThreadsPerJob = max(1, runtime.GOMAXPROCS(0)/o.Shards)
	}
	return o
}

// Engine is the simulation service: admission, scheduling, execution and
// caching of neutral runs. Create one with New, submit validated configs
// with Submit, and stop it with Close.
type Engine struct {
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc
	store  *store
	queue  *Queue
	wg     sync.WaitGroup

	mu     sync.Mutex
	closed bool
	jobs   map[string]*Job
	order  []*Job // submission order, for listing
	seq    uint64

	registry *telemetry.Registry
	metrics  *engineMetrics

	// Lifetime counters.
	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64
	runs      atomic.Uint64 // actual solver executions (cache misses)
	running   atomic.Int64  // jobs currently on a worker
	// avgRunNS is the EWMA of solve wallclock ShedDelay prices queue
	// drain with.
	avgRunNS atomic.Int64

	// runFn, when non-nil, replaces the Simulation-driven solve path;
	// tests substitute stubs through it.
	runFn func(context.Context, core.Config, core.ProgressFunc) (*core.Result, error)
}

// New builds an engine and starts its worker pool.
func New(opts Options) *Engine {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		opts:   opts,
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*Job),
		queue:  NewQueue(opts.Shards * opts.QueueDepth),
	}
	e.registry = opts.Registry
	if e.registry == nil {
		e.registry = telemetry.NewRegistry()
	}
	e.store = newStore(opts.CacheEntries, opts.Blobs, e.registry)
	e.metrics = newEngineMetrics(e, e.registry)
	e.wg.Add(opts.Shards)
	for range opts.Shards {
		go e.worker()
	}
	return e
}

// Submit validates the config and either serves it from the store (returning
// an already-Done job without touching a worker) or enqueues it. A full
// queue fails with ErrQueueFull; a closed engine with ErrClosed.
func (e *Engine) Submit(cfg core.Config) (*Job, error) {
	return e.submit(cfg, SubmitOptions{})
}

// SubmitOptions carries the fleet-transport extras of a submission.
type SubmitOptions struct {
	// Snapshot seeds the run: the solver restores it and continues from
	// its step boundary instead of running the completed steps again —
	// how a coordinator reschedules a shard onto this engine from the
	// dead worker's last checkpoint. A snapshot that fails to restore
	// (corrupt, or taken under a different config) is discarded and the
	// run starts fresh.
	Snapshot []byte
	// RetainSnapshot keeps the job's latest checkpoint — taken at the step
	// boundaries the cost cadence picks, the first one included — in memory
	// on the job for GET /v1/jobs/{id}/snapshot, the coordinator's pull
	// path. Off by default: a snapshot is bank-sized.
	RetainSnapshot bool
	// Tenant names the submitting tenant for fair-share scheduling and
	// the per-tenant metric families; empty means AnonymousTenant.
	Tenant string
}

// SubmitWith is Submit with fleet-transport options.
func (e *Engine) SubmitWith(cfg core.Config, so SubmitOptions) (*Job, error) {
	return e.submit(cfg, so)
}

// submit is the one admission path: user submissions, batch items and
// ensemble replicas alike.
func (e *Engine) submit(cfg core.Config, so SubmitOptions) (*Job, error) {
	key, err := identify(&cfg)
	if err != nil {
		return nil, err
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	e.seq++
	id := fmt.Sprintf("job-%06d", e.seq)
	e.mu.Unlock()

	tenant := so.Tenant
	if tenant == "" {
		tenant = AnonymousTenant
	}
	jctx, jcancel := context.WithCancel(e.ctx)
	j := &Job{
		id:          id,
		key:         key,
		cfg:         cfg,
		tenant:      tenant,
		ctx:         jctx,
		cancel:      jcancel,
		done:        make(chan struct{}),
		state:       StateQueued,
		resumedFrom: -1,
		submitted:   time.Now(),
		retainSnap:  so.RetainSnapshot,
		ckpt:        checkpoint{so.Snapshot, -1},
	}
	e.submitted.Add(1)

	if res, ens, ok := e.store.get(key, cfg); ok {
		// Stored result: the job is born terminal, no worker involved.
		// Ensemble entries carry their merged statistics alongside it.
		e.finish(j, StateDone, res, ens, nil, true)
	} else if cfg.Replicas > 1 {
		// Ensemble jobs are coordinated by a dedicated goroutine that fans
		// the replicas out as child jobs through the queue; the
		// parent itself never occupies a queue slot or a worker.
		if cfg.Tally == tally.ModeNull {
			// Mirrors stats.RunEnsemble: a null tally has no cells to
			// fold, so the ensemble would complete with silently
			// meaningless all-zero statistics.
			jcancel()
			return nil, errors.New("service: ensemble statistics need a live tally, not null")
		}
		e.record(j)
		go e.execute(j, nil)
		return j, nil
	} else if err := e.queue.Push(j); err != nil {
		jcancel()
		return nil, err
	}
	e.record(j)
	return j, nil
}

// BatchItem is one outcome of SubmitBatch: an admitted job or a per-item
// admission error.
type BatchItem struct {
	Job *Job
	Err error
}

// SubmitBatch submits the configs in order into one tenant lane, so they
// start in order on as many workers as are free, and each worker's engine
// reuse kicks in: a job compatible with the worker's last one shares its
// Simulation allocation (mesh, cross-section tables, particle bank survive
// Reset), amortising setup across the batch as a sweep does. Admission is
// per item — a full queue or invalid config fails that item, never the
// batch.
func (e *Engine) SubmitBatch(cfgs []core.Config) []BatchItem {
	return e.SubmitBatchAs("", cfgs)
}

// SubmitBatchAs is SubmitBatch on behalf of a named tenant, so every item
// lands in the tenant's fair-share lane.
func (e *Engine) SubmitBatchAs(tenant string, cfgs []core.Config) []BatchItem {
	items := make([]BatchItem, len(cfgs))
	for i, cfg := range cfgs {
		items[i].Job, items[i].Err = e.submit(cfg, SubmitOptions{Tenant: tenant})
	}
	return items
}

// identify validates cfg in place and returns the fingerprint it is stored
// under, "" when a hook makes it uncacheable. Threads stays as requested: it
// is no part of the identity, and 0 is resolved by the engine that solves the
// job (see solve), which in a fleet is not the one that admitted it.
func identify(cfg *core.Config) (string, error) {
	threads := cfg.Threads
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	cfg.Threads = threads
	key, cacheable := cfg.Fingerprint()
	if !cacheable {
		key = ""
	}
	return key, nil
}

// record indexes the job for lookup and listing.
func (e *Engine) record(j *Job) {
	e.mu.Lock()
	e.jobs[j.id] = j
	e.order = append(e.order, j)
	e.mu.Unlock()
}

// worker takes the queue's next runnable job whenever it is free, until the
// engine closes. Each worker owns one Simulation that every job rebinds, so a
// compatible next job keeps the mesh, tables and bank of the last one — the
// shared-setup amortisation batches and sweeps rely on. The queue holds the
// job's fingerprint from Pop until the Release here: at most one worker of
// this engine runs a key at a time.
func (e *Engine) worker() {
	defer e.wg.Done()
	var sim core.Simulation
	for {
		j, ok := e.queue.Pop()
		if !ok {
			return
		}
		if !j.enqueued.IsZero() {
			e.metrics.queueWait.With(j.tenant).Observe(time.Since(j.enqueued).Seconds())
		}
		e.execute(j, &sim)
		e.queue.Release(j.key)
	}
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

// execute is the one route from started to terminal — for plain jobs, remote
// dispatches and their local fallback, and ensemble parents (which solve
// nothing themselves and carry no simulation) alike.
func (e *Engine) execute(j *Job, sim *core.Simulation) {
	if !j.start() {
		return
	}
	e.running.Add(1)
	defer e.running.Add(-1)

	if j.cfg.Replicas > 1 {
		res, ens, err := e.runEnsemble(j)
		e.settle(j, res, ens, err, false)
		return
	}
	// An identical job may have completed while this one was queued or
	// held; the hold makes this re-check catch every same-key dupe.
	res, cached := e.store.recent(j.key)
	var err error
	if !cached {
		e.runs.Add(1)
		if res, err = e.tryRemote(j); errors.Is(err, ErrNoWorkers) {
			res, err = e.solve(j, sim)
		}
	}
	e.settle(j, res, nil, err, cached)
}

// settle is the terminal transition of a started job: a fresh result is
// filed and the checkpoint it makes obsolete dropped.
func (e *Engine) settle(j *Job, res *core.Result, ens *stats.Ensemble, err error, cached bool) {
	switch {
	case err == nil:
		if !cached {
			e.store.put(j.key, j.cfg, res, ens)
			e.store.dropCheckpoint(j.key)
		}
		e.finish(j, StateDone, res, ens, nil, cached)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		e.finish(j, StateCanceled, nil, nil, err, false)
	default:
		e.finish(j, StateFailed, nil, nil, err, false)
	}
}

// tryRemote dispatches an eligible job to the fleet. It answers ErrNoWorkers
// when the job was not (or could not be) dispatched and must be solved
// locally: no runner configured, an ineligible config, or no healthy workers
// — the graceful-degradation path, which leaves the last checkpoint the
// runner pulled before giving up on the job for acquire.
func (e *Engine) tryRemote(j *Job) (*core.Result, error) {
	r := e.opts.Remote
	if r == nil || j.key == "" || j.cfg.KeepBank {
		return nil, ErrNoWorkers
	}
	res, err := r.RunShard(j.ctx, j.cfg, j.applyRemoteUpdate)
	if errors.Is(err, ErrNoWorkers) {
		j.addWarning("fleet: no workers reachable; degraded to local execution")
	}
	return res, err
}

// checkpointBudget is k of the checkpoint cadence: a boundary checkpoints once
// the run has gone k times the last checkpoint's measured cost without one. So
// checkpointing takes at most 1/(k+1) of a run (~6 %), and a crash, a cancel
// or a drain loses at most k times one checkpoint's cost plus one step of
// work; a finished job loses nothing.
const checkpointBudget = 16

// cadence decides which step boundaries of one run checkpoint, from what the
// last checkpoint cost rather than from a step count. The caller supplies the
// clock readings.
type cadence struct {
	last time.Time     // when the latest checkpoint ended; zero before the first
	cost time.Duration // what it took
}

// due reports whether a boundary reached at now checkpoints: the first one a
// run reaches always does (it is also the measurement), a later one when the
// budget since the last checkpoint ended is spent.
func (c *cadence) due(now time.Time) bool {
	return c.last.IsZero() || now.Sub(c.last) >= checkpointBudget*c.cost
}

// took records a checkpoint that ran from start to end.
func (c *cadence) took(start, end time.Time) {
	c.cost, c.last = end.Sub(start), end
}

// solve drives one job through the core Simulation lifecycle: acquire binds
// the worker's simulation, Drive streams every step's result onto the job and
// checkpoints at the boundaries the cadence finds due — the first one reached
// and then whenever checkpointBudget times the last checkpoint's cost has
// passed, so what an interrupted job loses is bounded by cost, not by steps.
func (e *Engine) solve(j *Job, sim *core.Simulation) (*core.Result, error) {
	if e.runFn != nil {
		return e.runFn(j.ctx, j.cfg, j.setProgress)
	}
	if err := e.acquire(j, sim); err != nil {
		return nil, err
	}
	// Per-step timing spans land on the job for /v1/jobs/{id}/trace; the
	// next job's rebind clears the hook.
	sim.SetTrace(j.addTiming)

	var cad cadence
	return sim.Drive(j.ctx, j.setProgress, func(s *core.Simulation) {
		e.checkpoint(j, s, &cad)
		// Published after the checkpoint, so the boundary the step advertises
		// (StepView.Checkpoint) is one the job already serves.
		j.addStep(stepViewOf(s))
	})
}

// checkpoint takes the job's checkpoint at the boundary s stands on, if the
// job has a sink for one and cad finds it due, and gives cad the measured cost.
// One Snapshot() serves both sinks: the job itself (retainSnap, for a
// coordinator to pull) and the store (a durable key).
func (e *Engine) checkpoint(j *Job, s *core.Simulation, cad *cadence) {
	durable := e.store.durable(j.key)
	if !j.retainSnap && !durable {
		return
	}
	start := time.Now()
	if !cad.due(start) {
		e.store.checkpointSkipped.Inc()
		return
	}
	data := s.Snapshot()
	if j.retainSnap {
		j.mu.Lock()
		j.setCheckpoint(data, s.StepIndex())
		j.mu.Unlock()
	}
	if durable {
		// Best-effort — but never silent: a failed write surfaces as a
		// job warning and a counter, because an operator who configured
		// checkpointing is owed the news that durability is gone.
		if werr := e.store.saveCheckpoint(j.key, data); werr != nil {
			j.addWarning(fmt.Sprintf("checkpoint: write failed: %v", werr))
		}
	}
	cad.took(start, time.Now())
	e.store.checkpointSeconds.Observe(cad.cost.Seconds())
}

// acquire binds the worker's simulation to the job: the one place execution
// strategy is resolved (a request that names no thread count gets this
// engine's budget) and the one call into core's build path. Resume points are
// tried freshest first — the job's own checkpoint, which a coordinator handed
// in or pulled, then the store's, left by an earlier attempt; one that does
// not restore is discarded and the run starts fresh rather than failing.
func (e *Engine) acquire(j *Job, sim *core.Simulation) error {
	cfg := j.cfg
	if cfg.Threads == 0 {
		cfg.Threads = e.opts.ThreadsPerJob
	}
	resume := func(data []byte) error {
		err := sim.Restore(cfg, data)
		if err == nil {
			j.mu.Lock()
			j.resumedFrom = sim.StepIndex()
			j.mu.Unlock()
		}
		return err
	}
	if own, _ := j.Snapshot(); own != nil {
		err := resume(own)
		if err == nil {
			return nil
		}
		j.addWarning(fmt.Sprintf("checkpoint: seeded snapshot rejected, running fresh: %v", err))
	}
	if stored, ok := e.store.loadCheckpoint(j.key); ok {
		if resume(stored) == nil {
			return nil
		}
		e.store.dropCheckpoint(j.key)
	}
	return sim.Reset(cfg)
}

// stepViewOf summarises the simulation at the boundary it just completed.
func stepViewOf(s *core.Simulation) StepView {
	alive, census, dead := s.Population()
	return StepView{
		Step:        s.StepIndex() - 1,
		Steps:       s.Steps(),
		TallyTotal:  s.TallyTotal(),
		WallSeconds: s.Elapsed().Seconds(),
		Alive:       alive,
		Census:      census,
		Dead:        dead,
	}
}

// Job looks up a job by ID.
func (e *Engine) Job(id string) (*Job, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j, nil
}

// Jobs lists every job in submission order.
func (e *Engine) Jobs() []*Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*Job(nil), e.order...)
}

// Cancel stops a job: a queued job is marked canceled and removed without
// ever occupying a worker; a running job has its context canceled and the
// solver bails at its next poll. Canceling a terminal job is a no-op.
func (e *Engine) Cancel(id string) error {
	j, err := e.Job(id)
	if err != nil {
		return err
	}
	// Decide the queued case atomically with the state transition: if a
	// worker wins the race and sets Running first, this only cancels the
	// context and the worker records the cancellation when the solver
	// returns — never both.
	j.mu.Lock()
	wonQueued := j.state == StateQueued &&
		e.finishLocked(j, StateCanceled, nil, nil, context.Canceled, false)
	j.mu.Unlock()
	if wonQueued {
		e.queue.Remove(id)
		return nil
	}
	j.cancel()
	return nil
}

// Stats is a point-in-time view of the engine.
type Stats struct {
	Shards        int        `json:"shards"`
	QueueDepth    int        `json:"queue_depth"`
	ThreadsPerJob int        `json:"threads_per_job"`
	Queued        int        `json:"queued"`
	Running       int64      `json:"running"`
	Submitted     uint64     `json:"submitted"`
	Completed     uint64     `json:"completed"`
	Failed        uint64     `json:"failed"`
	Canceled      uint64     `json:"canceled"`
	Runs          uint64     `json:"runs"`
	Rejected      uint64     `json:"rejected"`
	Cache         CacheStats `json:"cache"`
}

// Stats reports queue, execution and cache counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Shards:        e.opts.Shards,
		QueueDepth:    e.opts.QueueDepth,
		ThreadsPerJob: e.opts.ThreadsPerJob,
		Running:       e.running.Load(),
		Submitted:     e.submitted.Load(),
		Completed:     e.completed.Load(),
		Failed:        e.failed.Load(),
		Canceled:      e.canceled.Load(),
		Runs:          e.runs.Load(),
		Queued:        e.queue.Len(),
		Cache:         e.store.lru.Stats(),
	}
	_, s.Rejected = e.queue.Stats()
	return s
}

// Cache exposes the result cache (read-mostly; shared with the API layer).
func (e *Engine) Cache() *Cache { return e.store.lru }

// DefaultScene reports the engine's default scene for problem-less
// submissions; nil when none was configured.
func (e *Engine) DefaultScene() *scene.Scene { return e.opts.DefaultScene }

// CheckpointInFlight writes the latest checkpoint of every non-terminal job
// that holds one into the blob store — the SIGTERM drain path: called
// before Close, it persists each in-flight shard at its last step boundary
// so a process restarted over the same store (or a coordinator rescheduling
// the shard elsewhere) resumes instead of re-running. Returns the number of
// snapshots written. A no-op without a store; a job that retains no snapshot
// has its latest cadence checkpoint in the store already (Close leaves it in
// place), at most checkpointBudget times one checkpoint's cost plus one step
// behind the run.
func (e *Engine) CheckpointInFlight() int {
	n := 0
	for _, j := range e.Jobs() {
		j.mu.Lock()
		terminal := j.state.Terminal()
		snap := j.ckpt.data
		j.mu.Unlock()
		if !terminal && snap != nil && e.store.durable(j.key) &&
			e.store.saveCheckpoint(j.key, snap) == nil {
			n++
		}
	}
	return n
}

// Close stops the engine: admissions end, the backlog and in-flight runs
// are canceled, and Close returns once every worker has exited. All
// non-terminal jobs end StateCanceled.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	e.mu.Unlock()

	e.cancel() // aborts running solvers and queued-job contexts
	e.queue.Close()
	e.wg.Wait()

	// Workers drained the queue; anything popped after the cancel came
	// back canceled. Sweep stragglers that were queued but skipped.
	for _, j := range e.Jobs() {
		e.finish(j, StateCanceled, nil, nil, ErrClosed, false)
	}
}
