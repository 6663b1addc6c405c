package service

import (
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// engineMetrics holds the event-updated instruments the engine and HTTP
// layer bump on the hot path. Everything the engine already counts through
// its atomics — queue depths, cache statistics, lifetime job counters — is
// exported as scrape-time callbacks instead, so the metrics layer adds no
// second source of truth to drift from the one /v1/stats reports. (The blob
// tier's and the checkpoints' counters are the store's.)
type engineMetrics struct {
	streamSubscribers *telemetry.Gauge
	jobDuration       *telemetry.HistogramVec
	particleRate      *telemetry.HistogramVec
	solverEvents      *telemetry.CounterVec
	solverHistories   *telemetry.CounterVec
	solverWork        *telemetry.CounterVec
	httpRequests      *telemetry.CounterVec
	tenantRequests    *telemetry.CounterVec
	tenantShed        *telemetry.CounterVec
	tenantDenied      *telemetry.CounterVec
	queueWait         *telemetry.HistogramVec
}

// newEngineMetrics registers the engine's metric vocabulary on r. Called
// once from New; the func-backed series close over the engine and read its
// live state at scrape time.
func newEngineMetrics(e *Engine, r *telemetry.Registry) *engineMetrics {
	m := &engineMetrics{
		streamSubscribers: r.Gauge("neutral_stream_subscribers",
			"Currently connected SSE job-stream clients."),
		jobDuration: r.HistogramVec("neutral_job_duration_seconds",
			"Wallclock from worker pickup to completion of solved (non-cached) jobs.",
			telemetry.ExpBuckets(0.001, 4, 9), // 1ms .. ~65s
			"scheme"),
		particleRate: r.HistogramVec("neutral_particles_per_second",
			"Histories retired per solver wallclock second, by scheme.",
			telemetry.ExpBuckets(1000, 4, 10), // 1e3 .. ~2.6e8
			"scheme"),
		solverEvents: r.CounterVec("neutral_solver_events_total",
			"Monte Carlo events processed by completed runs, by kind.",
			"kind"),
		solverHistories: r.CounterVec("neutral_solver_histories_total",
			"Histories retired by completed runs, by fate.",
			"fate"),
		solverWork: r.CounterVec("neutral_solver_work_total",
			"Solver work counters accumulated over completed runs, by kind.",
			"kind"),
		httpRequests: r.CounterVec("neutral_http_requests_total",
			"HTTP requests served, by status code.",
			"code"),
		tenantRequests: r.CounterVec("neutral_tenant_requests_total",
			"Authenticated HTTP requests, by tenant.",
			"tenant"),
		tenantShed: r.CounterVec("neutral_tenant_shed_total",
			"Requests shed by admission control, by tenant and reason (rate = over token-bucket budget, queue = queue full).",
			"tenant", "reason"),
		tenantDenied: r.CounterVec("neutral_tenant_denied_total",
			"Requests refused by authentication, by reason (missing, unknown, revoked).",
			"reason"),
		queueWait: r.HistogramVec("neutral_tenant_queue_wait_seconds",
			"Queue residency from admission to worker pickup, by tenant — the fair-share scheduler's output variable.",
			telemetry.ExpBuckets(0.0001, 4, 10), // 0.1ms .. ~26s
			"tenant"),
	}

	r.GaugeFunc("neutral_shards", "Worker-pool width.",
		func() float64 { return float64(e.opts.Shards) })
	r.GaugeFunc("neutral_threads_per_job", "Default solver threads per job.",
		func() float64 { return float64(e.opts.ThreadsPerJob) })
	r.GaugeFunc("neutral_jobs_running", "Jobs currently occupying a worker.",
		func() float64 { return float64(e.running.Load()) })

	r.CounterFunc("neutral_jobs_submitted_total", "Jobs admitted over the engine lifetime.",
		func() float64 { return float64(e.submitted.Load()) })
	r.CounterFunc("neutral_jobs_completed_total", "Jobs finished StateDone.",
		func() float64 { return float64(e.completed.Load()) })
	r.CounterFunc("neutral_jobs_failed_total", "Jobs finished StateFailed.",
		func() float64 { return float64(e.failed.Load()) })
	r.CounterFunc("neutral_jobs_canceled_total", "Jobs finished StateCanceled.",
		func() float64 { return float64(e.canceled.Load()) })
	r.CounterFunc("neutral_runs_total", "Actual solver executions (cache misses).",
		func() float64 { return float64(e.runs.Load()) })

	jobs := r.GaugeVec("neutral_jobs", "Jobs known to the engine, by lifecycle state.", "state")
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		st := st
		jobs.Func(func() float64 { return float64(e.countJobs(st)) }, string(st))
	}

	r.GaugeFunc("neutral_queue_depth", "Queued jobs.",
		func() float64 { return float64(e.queue.Len()) })
	r.GaugeFunc("neutral_queue_rejected_total",
		"Submissions refused by a full queue. Monotonic; a gauge only because the value is read from the queue, not owned here.",
		func() float64 {
			_, dropped := e.queue.Stats()
			return float64(dropped)
		})

	r.CounterFunc("neutral_cache_hits_total", "Result-cache hits.",
		func() float64 { return float64(e.store.stats().Hits) })
	r.CounterFunc("neutral_cache_misses_total", "Result-cache misses.",
		func() float64 { return float64(e.store.stats().Misses) })
	r.CounterFunc("neutral_cache_evictions_total", "Result-cache LRU evictions.",
		func() float64 { return float64(e.store.stats().Evictions) })
	r.GaugeFunc("neutral_cache_entries", "Results currently cached.",
		func() float64 { return float64(e.store.stats().Entries) })
	r.GaugeFunc("neutral_cache_capacity", "Result-cache capacity.",
		func() float64 { return float64(e.store.stats().Capacity) })

	return m
}

// countJobs counts jobs currently in the given state.
func (e *Engine) countJobs(st State) int {
	n := 0
	for _, j := range e.Jobs() {
		if j.Status().State == st {
			n++
		}
	}
	return n
}

// observeRun records one solved (non-cached) single-run result into the
// latency, throughput and solver-counter series; dur is the wallclock from
// worker pickup to completion. Ensemble parents are never observed — their
// replicas each pass through here, so observing the parent too would
// double-count every event.
func (m *engineMetrics) observeRun(res *core.Result, dur time.Duration) {
	scheme := res.Config.Scheme.String()
	m.jobDuration.With(scheme).Observe(dur.Seconds())
	c := &res.Counter
	if secs := res.Wall.Seconds(); secs > 0 {
		retired := c.Deaths + c.Escapes + c.CensusEvents
		m.particleRate.With(scheme).Observe(float64(retired) / secs)
	}
	m.solverEvents.With("facet").Add(float64(c.FacetEvents))
	m.solverEvents.With("collision").Add(float64(c.CollisionEvents))
	m.solverEvents.With("census").Add(float64(c.CensusEvents))
	m.solverHistories.With("death").Add(float64(c.Deaths))
	m.solverHistories.With("escape").Add(float64(c.Escapes))
	m.solverHistories.With("census").Add(float64(c.CensusEvents))
	m.solverWork.With("segments").Add(float64(c.Segments))
	m.solverWork.With("xs_lookups").Add(float64(c.XSLookups))
	m.solverWork.With("xs_search_steps").Add(float64(c.XSSearchSteps))
	m.solverWork.With("tally_flushes").Add(float64(c.TallyFlushes))
	m.solverWork.With("rng_draws").Add(float64(c.RNGDraws))
}

// Registry returns the telemetry registry the engine reports into — the
// one from Options.Registry, or the private registry New created.
func (e *Engine) Registry() *telemetry.Registry { return e.registry }
