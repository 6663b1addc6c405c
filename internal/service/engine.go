package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/scene"
	"repro/internal/service/blob"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// ErrUnknownJob reports a lookup of an ID the engine never issued, or one it
// has forgotten since (see jobHistory).
var ErrUnknownJob = errors.New("service: unknown job")

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
	// Blobs, when non-nil, is the engine's durable storage: checkpoints —
	// its own and those its Remote pulled — and completed results land there
	// under their job fingerprint, so any engine opened over the same store —
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
	// Snapshot is a checkpoint newly pulled from the worker, which the engine
	// files as it files its own: the resume point for fallback and restarts.
	Snapshot []byte
}

// RemoteRunner executes one job shard on a remote worker fleet, keeping no
// store. RunShard resumes the shard from seed (nil: from scratch) and blocks
// until it completes somewhere, reporting assignment changes, forwarded steps
// and pulled checkpoints through update. It fails with an error wrapping
// ErrNoWorkers when no healthy worker is reachable (the engine then runs the
// job locally), with ctx's error on cancellation, and with the run's own
// error when the shard failed deterministically.
type RemoteRunner interface {
	RunShard(ctx context.Context, cfg core.Config, seed []byte, update func(RemoteUpdate)) (*Filed, error)
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
	// forgotten counts the finished jobs dropped from jobs and order.
	forgotten uint64

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

// Submit is SubmitWith without options.
func (e *Engine) Submit(cfg core.Config) (*Job, error) {
	return e.SubmitWith(cfg, SubmitOptions{})
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
	// boundaries the cost cadence picks, the first one included, and without
	// a durable store only once the last was read — in memory on the job for
	// GET /v1/jobs/{id}/snapshot, the coordinator's pull path. Off by
	// default: a snapshot is bank-sized.
	RetainSnapshot bool
	// Tenant names the submitting tenant for fair-share scheduling and
	// the per-tenant metric families; empty means AnonymousTenant.
	Tenant string
}

// SubmitWith is the one admission path — user submissions, batch items and
// ensemble replicas alike. It validates the config and either serves it from
// the store (returning an already-Done job without touching a worker) or
// enqueues it. A full queue fails with ErrQueueFull; a closed engine with
// ErrClosed.
func (e *Engine) SubmitWith(cfg core.Config, so SubmitOptions) (*Job, error) {
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

	j := newJob(e, id, key, cfg, so)
	e.submitted.Add(1)

	if res, ens, ok := e.store.get(key, cfg); ok {
		// Stored result: the job is born terminal, no worker involved.
		// Ensemble entries carry their merged statistics alongside it.
		j.finish(StateQueued, StateDone, res, ens, nil, true)
	} else if cfg.Replicas > 1 {
		// Ensemble jobs are coordinated by a dedicated goroutine that fans
		// the replicas out as child jobs through the queue; the
		// parent itself never occupies a queue slot or a worker.
		e.record(j)
		go e.execute(j, nil)
		return j, nil
	} else if err := e.queue.Push(j); err != nil {
		j.cancel()
		return nil, err
	}
	e.record(j)
	return j, nil
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

// jobHistory is how many finished jobs the engine remembers. A terminal job
// pins its filed result (shared with the LRU entry it came from or went to),
// its step and timing history and, on a retain_snapshot run whose result was
// never served, its checkpoint, so an engine that kept them all would grow
// without bound.
const jobHistory = 1024

// record indexes the job for lookup and listing, and forgets the oldest
// finished jobs beyond jobHistory: their IDs answer ErrUnknownJob from then
// on. A job that is not terminal is never forgotten.
func (e *Engine) record(j *Job) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.jobs[j.id] = j
	e.order = append(e.order, j)
	// Every terminal transition is on a lifetime counter before the job's
	// done channel closes, so ended counts the finished jobs remembered (and
	// at most a few about to be).
	ended := e.completed.Load() + e.failed.Load() + e.canceled.Load() - e.forgotten
	e.order = slices.DeleteFunc(e.order, func(o *Job) bool {
		if ended <= jobHistory {
			return false
		}
		select {
		case <-o.done:
		default:
			return false
		}
		delete(e.jobs, o.id)
		e.forgotten++
		ended--
		return true
	})
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
		e.settle(j, res, ens, err)
		return
	}
	// An identical job may have completed while this one was queued or
	// held; the hold makes this re-check catch every same-key dupe.
	if res, _, ok := e.store.get(j.key, j.cfg); ok {
		j.finish(StateRunning, StateDone, res, nil, nil, true)
		return
	}
	e.runs.Add(1)
	f, err := e.tryRemote(j)
	if errors.Is(err, ErrNoWorkers) {
		var res *core.Result
		if res, err = e.solve(j, sim); err == nil {
			f = fileResult(res)
		}
	}
	e.settle(j, f, nil, err)
}

// settle is the terminal transition of a started job that computed: a fresh
// result, filed at its source — a solve here or a replica merge by
// fileResult, a coordinator's RunShard result as it was parsed — is stored,
// and the checkpoint it makes obsolete dropped.
func (e *Engine) settle(j *Job, f *Filed, ens *stats.Ensemble, err error) {
	switch {
	case err == nil:
		e.store.put(j.key, j.cfg, f, ens)
		e.store.dropCheckpoint(j.key)
		j.finish(StateRunning, StateDone, f, ens, nil, false)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.finish(StateRunning, StateCanceled, nil, nil, err, false)
	default:
		j.finish(StateRunning, StateFailed, nil, nil, err, false)
	}
}

// tryRemote dispatches an eligible job to the fleet from its resume point,
// filing each pulled checkpoint before the step that advertised it. It answers
// ErrNoWorkers when the job was not (or could not be) dispatched and must be
// solved locally: no runner configured, an ineligible config, or no healthy
// workers — the graceful-degradation path, which leaves the last checkpoint
// the runner pulled before giving up on the job for acquire.
func (e *Engine) tryRemote(j *Job) (*Filed, error) {
	r := e.opts.Remote
	if r == nil || j.key == "" || j.cfg.KeepBank {
		return nil, ErrNoWorkers
	}
	seed, _ := e.resumePoint(j)
	res, err := r.RunShard(j.ctx, j.cfg, seed, func(u RemoteUpdate) {
		if u.Snapshot != nil {
			e.fileCheckpoint(j, u.Snapshot, -1, true)
		}
		j.applyRemoteUpdate(u)
	})
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
// A key without a durable store has one reader, GET /snapshot: after the first
// boundary, the job's checkpoint is replaced only once that reader has taken
// the one it holds, so a worker snapshots at most as often as it is pulled.
func (e *Engine) checkpoint(j *Job, s *core.Simulation, cad *cadence) {
	durable := e.store.durable(j.key)
	if !j.retainSnap && !durable {
		return
	}
	start := time.Now()
	if !cad.due(start) || !durable && !cad.last.IsZero() && !j.pulled.Load() {
		e.store.checkpointSkipped.Inc()
		return
	}
	e.fileCheckpoint(j, s.Snapshot(), s.StepIndex(), j.retainSnap)
	cad.took(start, time.Now())
	e.store.checkpointSeconds.Observe(cad.cost.Seconds())
}

// fileCheckpoint is the one sink of a job's checkpoints, taken here or pulled
// (step -1): the job keeps it when keep, and a durable key files it in the
// store — best-effort, but a failure is a job warning and a counter, because
// an operator who configured a store is owed the news that durability is gone.
func (e *Engine) fileCheckpoint(j *Job, data []byte, step int, keep bool) {
	if keep {
		j.retain(data, step)
	}
	if e.store.durable(j.key) {
		if werr := e.store.saveCheckpoint(j.key, data); werr != nil {
			j.addWarning(fmt.Sprintf("checkpoint: write failed: %v", werr))
		}
	}
}

// resumePoint is the one place a job's resume point is chosen, freshest first:
// its own checkpoint (handed in or pulled), else the store's; stored says
// which, and data is nil when there is neither.
func (e *Engine) resumePoint(j *Job) (data []byte, stored bool) {
	if own, _ := j.Snapshot(); own != nil {
		return own, false
	}
	return e.store.loadCheckpoint(j.key)
}

// acquire binds the worker's simulation to the job: the one place execution
// strategy is resolved (a request that names no thread count gets this
// engine's budget) and the one call into core's build path. A resume point
// that does not restore is discarded for the next, or a fresh run.
func (e *Engine) acquire(j *Job, sim *core.Simulation) error {
	cfg := j.cfg
	if cfg.Threads == 0 {
		cfg.Threads = e.opts.ThreadsPerJob
	}
	for {
		data, stored := e.resumePoint(j)
		if data == nil {
			return sim.Reset(cfg)
		}
		err := sim.Restore(cfg, data)
		if err == nil {
			j.resumed(sim.StepIndex())
			return nil
		}
		if stored {
			e.store.dropCheckpoint(j.key)
			return sim.Reset(cfg)
		}
		j.addWarning(fmt.Sprintf("checkpoint: seeded snapshot rejected, running fresh: %v", err))
		j.retain(nil, -1)
	}
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

// Jobs lists the jobs the engine remembers — every job in flight and the
// newest jobHistory finished ones — in submission order.
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
	// The queued case is decided by the state transition itself: if a worker
	// wins the race and sets Running first, this only cancels the context
	// and the worker records the cancellation when the solver returns —
	// never both.
	if j.finish(StateQueued, StateCanceled, nil, nil, context.Canceled, false) {
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
		Cache:         e.store.stats(),
	}
	_, s.Rejected = e.queue.Stats()
	return s
}

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
		// The checkpoint first: a job that finishes in between reads terminal.
		snap, _ := j.Snapshot()
		if snap != nil && !j.Status().State.Terminal() && e.store.durable(j.key) &&
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
		j.finish("", StateCanceled, nil, nil, ErrClosed, false)
	}
}
