package harness

import (
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// The harness keeps one process-wide telemetry registry: every native
// solver run the experiment suite performs (including the repeat runs
// runNative uses to de-noise timings) is aggregated here, so a benchmark
// invocation can snapshot what regenerating the figures actually cost.
// MetricsSnapshot exposes it in the same Prometheus text format the
// service serves on /metrics, making the two tiers diffable with the
// same tooling.
var (
	metricsOnce sync.Once
	metricsReg  *telemetry.Registry
	mRuns       *telemetry.CounterVec // label: scheme
	mWall       *telemetry.Counter
	mEvents     *telemetry.CounterVec // label: kind
	mWork       *telemetry.CounterVec // label: kind
)

func harnessMetrics() *telemetry.Registry {
	metricsOnce.Do(func() {
		metricsReg = telemetry.NewRegistry()
		mRuns = metricsReg.CounterVec("harness_native_runs_total",
			"Native solver runs executed by the experiment harness, repeats included.", "scheme")
		mWall = metricsReg.Counter("harness_native_wall_seconds_total",
			"Cumulative solver wallclock across native harness runs.")
		mEvents = metricsReg.CounterVec("harness_solver_events_total",
			"Monte Carlo events processed across native harness runs.", "kind")
		mWork = metricsReg.CounterVec("harness_solver_work_total",
			"Solver work counters aggregated across native harness runs.", "kind")
	})
	return metricsReg
}

// recordNative folds one finished native run into the harness registry.
func recordNative(res *core.Result) {
	harnessMetrics()
	mRuns.With(res.Config.Scheme.String()).Inc()
	mWall.Add(res.Wall.Seconds())
	c := &res.Counter
	mEvents.With("facet").Add(float64(c.FacetEvents))
	mEvents.With("collision").Add(float64(c.CollisionEvents))
	mEvents.With("census").Add(float64(c.CensusEvents))
	mWork.With("segments").Add(float64(c.Segments))
	mWork.With("xs_lookups").Add(float64(c.XSLookups))
	mWork.With("xs_search_steps").Add(float64(c.XSSearchSteps))
	mWork.With("tally_flushes").Add(float64(c.TallyFlushes))
	mWork.With("rng_draws").Add(float64(c.RNGDraws))
}

// MetricsSnapshot renders the harness registry as Prometheus text
// exposition — empty until the first native run has been recorded.
func MetricsSnapshot() string {
	var b strings.Builder
	harnessMetrics().WritePrometheus(&b)
	return b.String()
}
