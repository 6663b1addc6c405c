package harness

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/archmodel"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/particle"
)

// nativeConfig sizes a native run for the requested scale. Event counts per
// particle scale with mesh resolution, so reduced scales preserve the
// event balance while keeping the suite fast.
func nativeConfig(p mesh.Problem, opt Options) core.Config {
	cfg := core.Default(p)
	cfg.Threads = opt.Threads
	switch opt.Scale {
	case Quick:
		cfg.NX, cfg.NY = 128, 128
		cfg.Particles = 300
		if p == mesh.Scatter {
			cfg.Particles = 2000
		}
	case Standard:
		cfg.NX, cfg.NY = 512, 512
		cfg.Particles = 2000
		if p == mesh.Scatter {
			cfg.Particles = 20000
		}
	case Full:
		cfg = core.Paper(p)
		cfg.Threads = opt.Threads
	}
	return cfg
}

// threadsFor resolves the native worker count.
func threadsFor(opt Options) int {
	if opt.Threads > 0 {
		return opt.Threads
	}
	return runtime.GOMAXPROCS(0)
}

// threadSweep returns the thread counts for a native scaling study.
func threadSweep(opt Options) []int {
	max := threadsFor(opt)
	var out []int
	for t := 1; t < max; t *= 2 {
		out = append(out, t)
	}
	if len(out) == 0 || out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// workloadKey caches paper-scale workloads measured from instrumented runs;
// several figures share them.
type workloadKey struct {
	problem mesh.Problem
	scheme  core.Scheme
	soa     bool
}

var (
	wlMu    sync.Mutex
	wlCache = map[workloadKey]archmodel.Workload{}
)

// paperWorkload measures (once) and returns the paper-scale workload.
func paperWorkload(p mesh.Problem, s core.Scheme) (archmodel.Workload, error) {
	return paperWorkloadLayout(p, s, false)
}

func paperWorkloadLayout(p mesh.Problem, s core.Scheme, soa bool) (archmodel.Workload, error) {
	key := workloadKey{p, s, soa}
	wlMu.Lock()
	defer wlMu.Unlock()
	if w, ok := wlCache[key]; ok {
		return w, nil
	}
	var mod func(*core.Config)
	if soa {
		mod = func(c *core.Config) { c.Layout = particle.SoA }
	}
	w, err := archmodel.MeasureWorkloadCfg(p, s, mod)
	if err != nil {
		return archmodel.Workload{}, err
	}
	wlCache[key] = w
	return w, nil
}

// problems is the paper's test-case order.
var problems = []mesh.Problem{mesh.Stream, mesh.Scatter, mesh.CSP}

// runNative measures a native configuration, returning the fastest of
// three runs: single measurements of sub-100ms runs are noisy on shared
// hosts, and the paper's wallclock comparisons assume steady-state timings.
// Every run (repeats included) is recorded in the harness metrics registry
// and in the run log that backs the -json variance report.
func runNative(cfg core.Config) (*core.Result, error) {
	best, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	recordNative(best)
	logRun(best)
	for i := 0; i < 2; i++ {
		again, err := core.Run(cfg)
		if err != nil {
			return nil, err
		}
		recordNative(again)
		logRun(again)
		if again.Wall < best.Wall {
			best = again
		}
	}
	return best, nil
}

// RunStat summarises the repeat runs of one native configuration: the
// figures report the fastest run, and this carries the spread behind that
// number so a CI trend can tell a real regression from host noise.
type RunStat struct {
	Label         string  `json:"label"`
	Runs          int     `json:"runs"`
	MinSeconds    float64 `json:"min_seconds"`
	MedianSeconds float64 `json:"median_seconds"`
	StddevSeconds float64 `json:"stddev_seconds"`
}

var (
	runLogMu sync.Mutex
	runLog   = map[string][]float64{}
)

// runLabel names a configuration for the run log: its problem and size, and
// every Strategy field that changes a run's cost. Two experiments that run
// the same configuration pool their samples, which is the point — more
// samples, tighter spread — and two that differ in any of them never do.
func runLabel(cfg core.Config) string {
	label := fmt.Sprintf("%s/%s/%s/%s/%s/merge=%t/%s/sort%d/%dx%d/n%d", cfg.Problem, cfg.Scheme, cfg.Layout,
		cfg.Schedule, cfg.Tally, cfg.MergePerStep, cfg.Ordering, cfg.SortEvery, cfg.NX, cfg.NY, cfg.Particles)
	if cfg.Threads > 0 {
		label += fmt.Sprintf("/t%d", cfg.Threads)
	}
	return label
}

func logRun(res *core.Result) {
	runLogMu.Lock()
	defer runLogMu.Unlock()
	key := runLabel(res.Config)
	runLog[key] = append(runLog[key], res.Wall.Seconds())
}

// RunStats returns min/median/stddev per native configuration, sorted by
// label, aggregated over every native run since process start.
func RunStats() []RunStat {
	runLogMu.Lock()
	defer runLogMu.Unlock()
	out := make([]RunStat, 0, len(runLog))
	for label, walls := range runLog {
		s := append([]float64(nil), walls...)
		sort.Float64s(s)
		n := len(s)
		median := s[n/2]
		if n%2 == 0 {
			median = (s[n/2-1] + s[n/2]) / 2
		}
		var mean, sq float64
		for _, w := range s {
			mean += w
		}
		mean /= float64(n)
		for _, w := range s {
			sq += (w - mean) * (w - mean)
		}
		var stddev float64
		if n > 1 {
			stddev = math.Sqrt(sq / float64(n-1))
		}
		out = append(out, RunStat{
			Label:         label,
			Runs:          n,
			MinSeconds:    s[0],
			MedianSeconds: median,
			StddevSeconds: stddev,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}
