package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// The cut points must be the ones Python's statistics.quantiles(v, n=4)
// returns: the acceptance check of the benchmark is computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 9, 3, 7}, [3]float64{2, 5, 8}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{9, 1, 5}); m != 5 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if p := percentile([]float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.9); !near(p, 90) {
		t.Errorf("p90 = %v", p)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

func TestCalibratedSeconds(t *testing.T) {
	// A host running the kernel at exactly the reference speed reports raw seconds.
	ref := 40 * time.Millisecond
	if got := calibrated(2*time.Second, ref, ref, CalibRefS); !near(got, 2) {
		t.Errorf("at reference speed: %v, want 2", got)
	}
	// A host twice as slow (kernel takes 80 ms) took 4 s raw for the same work.
	if got := calibrated(4*time.Second, 2*ref, 2*ref, CalibRefS); !near(got, 2) {
		t.Errorf("at half speed: %v, want 2", got)
	}
	// The two bracketing runs are averaged.
	if got := calibrated(3*time.Second, ref, 2*ref, CalibRefS); !near(got, 2) {
		t.Errorf("drifting host: %v, want 2", got)
	}
	// A shorter kernel (smoke) with a proportionally smaller reference gives the same unit.
	if got := calibrated(2*time.Second, ref/20, ref/20, CalibRefS/20); !near(got, 2) {
		t.Errorf("short kernel: %v, want 2", got)
	}
}

func TestWorsening(t *testing.T) {
	if w := worsening(100, 110, "lower"); !near(w, 0.10) {
		t.Errorf("lower-is-better, 100 -> 110: %v", w)
	}
	if w := worsening(100, 90, "higher"); !near(w, 0.10) {
		t.Errorf("higher-is-better, 100 -> 90: %v", w)
	}
	if w := worsening(100, 120, "higher"); !near(w, -0.20) {
		t.Errorf("an improvement must be negative: %v", w)
	}
}

// Pairing: overhead_x and parallel_speedup are ratios of two timings of the
// same round; the reported value is the median of the per-round ratios, not
// the ratio of the medians.
func TestPairedRatioIsMedianOfRatios(t *testing.T) {
	job := []float64{2, 30, 4}
	bare := []float64{1, 10, 4}
	var ratios []float64
	for i := range job {
		ratios = append(ratios, job[i]/bare[i])
	}
	if got := aggregate("overhead_x", ratios); got != 2 {
		t.Errorf("median of ratios = %v, want 2", got)
	}
	if got := aggregate("verify.tally_rel_diff", []float64{0, 3e-16, 1e-16}); got != 3e-16 {
		t.Errorf("verify metrics report the maximum, got %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "bench.op", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "http.submit", Start: ms(0), End: ms(10)},
		{ID: 3, Parent: 1, Name: "http.stream", Start: ms(10), End: ms(90)},
		// Starts before its parent (the job was queued while the submit
		// reply was in flight): only the part inside the parent counts.
		{ID: 4, Parent: 3, Name: "service.run", Start: ms(5), End: ms(80)},
		{ID: 5, Parent: 4, Name: "core.step[0]", Start: ms(20), End: ms(40)},
		// Two overlapping children are covered once.
		{ID: 6, Parent: 4, Name: "blob.put", Start: ms(35), End: ms(50)},
		{ID: 7, Parent: 1, Name: "http.result", Start: ms(90), End: ms(100)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 0,               // fully covered by its three children
		2: ms(10),          //
		3: ms(10),          // 80 - the 70 its clipped child covers
		4: ms(70) - ms(30), // clipped to [10,80], children cover [20,50]
		5: ms(20),
		6: ms(15),
		7: ms(10),
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	// Non-overlapping siblings sum to the root; the one overlap (5 ms between
	// step and put) is the only excess.
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != ms(105) {
		t.Errorf("sum of self times = %v, want 105ms", sum)
	}
}

func TestRouteOf(t *testing.T) {
	cases := []struct{ method, path, op, id string }{
		{http.MethodPost, "/v1/jobs", "dispatch", ""},
		{http.MethodGet, "/v1/jobs/job-000007", "status", "job-000007"},
		{http.MethodGet, "/v1/jobs/job-000007/stream", "watch", "job-000007"},
		{http.MethodGet, "/v1/jobs/job-000007/snapshot", "snapshot_pull", "job-000007"},
		{http.MethodGet, "/v1/jobs/job-000007/result", "result_fetch", "job-000007"},
		{http.MethodDelete, "/v1/jobs/job-000007", "other", "job-000007"},
		{http.MethodGet, "/healthz", "other", ""},
	}
	for _, c := range cases {
		if op, id := routeOf(c.method, c.path); op != c.op || id != c.id {
			t.Errorf("routeOf(%s %s) = %q %q, want %q %q", c.method, c.path, op, id, c.op, c.id)
		}
	}
}

func TestSeedsAreDeterministicAndDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		s := mix(1, i)
		if s != mix(1, i) {
			t.Fatal("mix is not a function of its inputs")
		}
		if seen[s] {
			t.Fatalf("mix(1, %d) repeats an earlier seed", i)
		}
		seen[s] = true
	}
	if mix(1, 0) == mix(2, 0) {
		t.Error("different run seeds must give different round seeds")
	}
}

func TestCompareSetsFlagsOnlyWhatExceedsTheBound(t *testing.T) {
	base := map[string]float64{"setup_s": 1, "events_per_s_t1": 100, "job_p50_s": 1, "jobs_per_s": 10, "overhead_x": 2, "peak_rss_mb": 50}
	same := map[string]map[string]float64{}
	worse := map[string]map[string]float64{}
	for _, w := range workloads {
		same[w.Name] = base
		worse[w.Name] = base
	}
	if !compareSets([]map[string]map[string]float64{same, same}) {
		t.Error("identical sets must agree")
	}
	slow := map[string]float64{}
	for k, v := range base {
		slow[k] = v
	}
	slow["jobs_per_s"] = 7 // 30% lower on a higher-is-better metric
	worse["csp_op"] = slow
	if compareSets([]map[string]map[string]float64{same, worse}) {
		t.Error("a 30% drop in jobs_per_s must be flagged")
	}
}

// BENCHMARK.json at the repository root is generated from the catalogue
// (benchmark -describe); this keeps the two from drifting apart and checks
// the limits the harness puts on the file.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `benchmark -describe`; regenerate it")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("bad or repeated metric name %q", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: bad direction %q", d.Name, d.Better)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range perLayer {
		check(d)
		if d.Layer == "" || d.Moves == "" {
			t.Errorf("%s: the interaction table needs a layer and what it moves", d.Name)
		}
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is required")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name, or why of %d characters", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if refs[w.Name].Events == 0 {
			t.Errorf("refs.json has no reference for %s", w.Name)
		}
	}
}

// Every workload at smoke scale, untraced and traced, verification on: every
// code path of the benchmark runs, every metric gets a value, nothing fails.
func TestSmoke(t *testing.T) {
	start := time.Now()
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out := filepath.Join(dir, w.Name+".json")
			res, err := runWorkload(runOpts{Workload: w.Name, Seed: 7, Seconds: 1, Trace: traced, Smoke: true, Out: out, Quiet: true}, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.Name, traced, d.Name, m, ok)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s traced=%v: result does not encode: %v", w.Name, traced, err)
			}
			if traced {
				data, err := os.ReadFile(out)
				var doc struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err != nil || json.Unmarshal(data, &doc) != nil || len(doc.TraceEvents) == 0 {
					t.Errorf("%s: trace file unreadable or empty: %v", w.Name, err)
				}
			}
		}
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke took %v, want under 15s", d)
	}
}
