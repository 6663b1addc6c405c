package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

//go:embed refs.json
var refsJSON []byte

// reference is the expected size of one op's result at full scale: a result
// further than refBand from it did different work, however fast.
type reference struct {
	Events     float64 `json:"events"`
	TallyTotal float64 `json:"tally_total"`
	// Band is the relative half-width of the accepted range: a few times
	// the seed-to-seed spread of one op at this size.
	Band float64 `json:"band"`
}

func loadRefs() (map[string]reference, error) {
	refs := map[string]reference{}
	err := json.Unmarshal(refsJSON, &refs)
	return refs, err
}

// checkRef fails the op when its event count or tally total lies outside the
// workload's reference band. Seed-to-seed spread is well inside the band, so
// a re-pinned arithmetic passes and skipped work does not. Smoke runs are a
// different size and skip it.
func (b *bench) checkRef(what string, round int, events, tally float64) {
	b.add("ref.events", events)
	b.add("ref.tally_total", tally)
	if b.opts.Smoke || b.ref.Events == 0 {
		return
	}
	band := b.ref.Band
	off := func(got, want float64) bool { return math.Abs(got-want) > band*math.Abs(want) }
	if off(events, b.ref.Events) {
		b.fail("round %d %s: %.0f events, outside ±%.0f%% of the reference %.0f", round, what, events, band*100, b.ref.Events)
	}
	if off(tally, b.ref.TallyTotal) {
		b.fail("round %d %s: tally total %.6g, outside ±%.0f%% of the reference %.6g", round, what, tally, band*100, b.ref.TallyTotal)
	}
}

// metricValue and result are the last line a run prints: one JSON object
// with exactly these keys.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload runs one workload once and reports it on out. The returned
// result holds the end-to-end metrics for an untraced run and the per-layer
// metrics for a traced one.
func runWorkload(opts runOpts, out io.Writer) (result, error) {
	wp := workloadByName(opts.Workload)
	if wp == nil {
		return result{}, fmt.Errorf("unknown workload %q", opts.Workload)
	}
	refs, err := loadRefs()
	if err != nil {
		return result{}, fmt.Errorf("refs.json: %w", err)
	}
	b := &bench{w: *wp, opts: opts, P: min(runtime.NumCPU(), 4),
		samples: map[string][]float64{}, probe: map[string][]float64{},
		calibScale: 1, ref: refs[wp.Name]}
	runtime.GOMAXPROCS(b.P)
	if opts.Seconds <= 0 {
		opts.Seconds = defaultSeconds
	}
	b.rounds = max(b.w.Rounds*opts.Seconds/defaultSeconds, minRounds)
	if opts.Trace {
		// Half the rounds of a traced run are traced and the probes take a
		// few seconds, so it runs fewer rounds to fit the same window.
		b.rounds = max(b.rounds*7/10, minRounds)
		b.rec = newRecorder()
	}
	if opts.Smoke {
		b.w = b.w.smoke()
		b.rounds = b.w.Rounds
		b.calibScale = 20
	}
	b.calibRef = CalibRefS / float64(b.calibScale)
	// Rounds stop starting once the process is this share of its window old
	// (see expired); a traced run leaves room for the probes that follow.
	share := 115
	if opts.Trace {
		share = 85
	}
	b.deadline = time.Now().Add(time.Duration(opts.Seconds) * time.Second * time.Duration(share) / 100)

	tracePath := opts.Out
	if tracePath == "" {
		tracePath = filepath.Join("benchmark", "out", "trace-"+b.w.Name+".json")
	}
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return result{}, err
	}
	if b.tmp, err = os.MkdirTemp(filepath.Dir(tracePath), "run-"); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(b.tmp)

	start := time.Now()
	from := markProc()
	if b.w.Kind == kindSolver {
		b.runSolver()
	} else {
		b.runService()
	}
	b.recordProc(from, b.attempted)
	mainWall := time.Since(start)
	if opts.Trace {
		b.probing = true
		b.kernelProbes()
		b.coreProbes()
		b.stackProbe(false)
		b.stackProbe(true)
		b.probing = false
	}
	b.derive()

	if opts.Trace {
		if err := writeChrome(tracePath, b.rec.snapshot()); err != nil {
			b.fail("writing %s: %v", tracePath, err)
		}
	}
	if !opts.Quiet {
		host, _ := json.Marshal(hostFacts(b.P))
		fmt.Fprintf(out, "workload %s seed %d trace %v rounds %d: measured %.1fs, total %.1fs\n",
			b.w.Name, opts.Seed, opts.Trace, b.rounds, mainWall.Seconds(), time.Since(start).Seconds())
		fmt.Fprintf(out, "host %s\n", host)
	}
	res := b.report(out)
	if opts.Trace && !opts.Quiet {
		fmt.Fprintf(out, "trace written to %s (%d spans)\n", tracePath, len(b.rec.snapshot()))
	}
	return res, nil
}

// report reduces the samples to the run's metrics — the end-to-end set for an
// untraced run, the per-layer set for a traced one — and prints each beside
// its quartiles, minimum, sample count and source (the workload's own path or
// a coverage probe), then the diagnostics and the failures.
func (b *bench) report(out io.Writer) result {
	defs := endToEnd
	if b.opts.Trace {
		defs = perLayer
	}
	quiet := b.opts.Quiet
	res := result{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		values, src := b.samples[d.Name], "own"
		if len(values) == 0 {
			values, src = b.probe[d.Name], "probe"
		}
		if len(values) == 0 {
			b.fail("metric %s has no samples", d.Name)
			res.Metrics[d.Name] = metricValue{Value: 0, Unit: d.Unit}
			continue
		}
		v := aggregate(d.Name, values)
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		if !quiet {
			s := summarize(values)
			fmt.Fprintf(out, "%-32s %14.6g %-6s n=%-4d q1=%-12.6g q3=%-12.6g min=%-12.6g %s\n",
				d.Name, v, d.Unit, s.N, s.Q1, s.Q3, s.Min, src)
		}
	}
	// failed counts failed checks, and one op can fail several; capped so
	// failed/attempted stays a ratio.
	res.Attempted = max(b.attempted, 1)
	res.Failed = min(b.failed, res.Attempted)
	res.Correct = b.failed == 0 && b.attempted > 0
	if quiet {
		return res
	}
	// Diagnostics that are not metrics: the raw medians behind the
	// calibrated ones, and the observed result sizes refs.json is
	// checked against.
	var names []string
	for name := range b.samples {
		if strings.HasPrefix(name, "calib.raw_") || strings.HasPrefix(name, "ref.") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		s := summarize(b.samples[name])
		fmt.Fprintf(out, "# %-30s %14.6g n=%d\n", name, s.Med, s.N)
	}
	fmt.Fprintf(out, "failed_ratio %g (%d of %d)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, f := range b.failures {
		fmt.Fprintf(out, "  failure: %s\n", f)
	}
	return res
}

// aggregate reduces a metric's samples to its reported value: the median,
// except where the definition says otherwise.
func aggregate(name string, values []float64) float64 {
	switch {
	case strings.HasPrefix(name, "verify."):
		m := values[0]
		for _, v := range values {
			m = math.Max(m, v)
		}
		return m
	case name == "http.job_p90_s":
		return percentile(values, 0.9)
	}
	return median(values)
}

// derive computes the metrics that are functions of other samples.
func (b *bench) derive() {
	if b.jobsWall > 0 {
		// Throughput is work over time for the whole measured phase, not a
		// median of rounds: whether the two jobs of a round hash to one
		// shard makes per-round throughput two-humped, and a median would
		// flip between the humps.
		b.set("jobs_per_s", b.jobsDone/b.jobsWall)
	}
	if c := b.samples["calib.raw_s"]; len(c) > 1 {
		b.set("calib.spread", spread(c))
	}
	if jobs := b.samples["job_p50_s"]; len(jobs) > 0 {
		if b.w.Kind != kindSolver {
			b.samples["http.job_p90_s"] = jobs
		}
		if traced := b.samples["traced.job_s"]; len(traced) > 0 {
			b.set("trace.overhead_x", median(traced)/median(jobs))
		}
	}
	if p := b.probe["probe.job_s"]; len(p) > 0 {
		b.probe["http.job_p90_s"] = p
	}
	// The per-kernel budget: probe nanoseconds x the op's counts over the
	// single-thread step. Estimated, not measured: a tight loop is the
	// kernel's best case.
	pick := func(name string) float64 {
		if v := b.samples[name]; len(v) > 0 {
			return median(v)
		}
		return median(b.probe[name])
	}
	step := pick("core.step_t1_s")
	if !(step > 0) {
		return
	}
	share := func(terms ...float64) float64 {
		sum := 0.0
		for i := 0; i+1 < len(terms); i += 2 {
			sum += terms[i] * terms[i+1]
		}
		return sum * 1e-9 / step
	}
	collisions := pick("events.collisions")
	b.set("events.est_share", share(
		pick("events.distance_to_facet_ns"), pick("core.segments"),
		pick("events.apply_facet_ns"), pick("events.facets"),
		pick("events.collide_ns"), collisions))
	b.set("xs.est_share", share(pick("xs.lookup_ns"), pick("xs.lookups")))
	// Only a collision charges a particle's deposit register, and zero
	// deposits are elided, so collisions bound the real tally adds.
	b.set("tally.est_share", share(pick("tally.add_ns"), math.Min(pick("tally.flushes"), collisions)))
	b.set("rng.est_share", share(pick("rng.block_ns"), pick("rng.draws")))
}
