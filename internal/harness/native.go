package harness

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/archmodel"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/stats"
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

// pairedConfig sizes a run of a paired comparison: nativeConfig's, with
// standard scale's populations ×20, so that one csp Over Particles run at
// one thread lasts ≥ 0.2 s (about 0.3 s on a 2-vCPU x86 host) and host
// noise is a small share of it.
func pairedConfig(p mesh.Problem, opt Options) core.Config {
	cfg := nativeConfig(p, opt)
	if opt.Scale == Standard {
		cfg.Particles *= 20
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

// pairs is the number of alternating pairs in which every native comparison
// runs its two configurations (stats.Compare); quick stays the tier-1 path.
func pairs(opt Options) int {
	if opt.Scale == Quick {
		return 3
	}
	return 10
}

// nativeBound is the gap a native claim asks for: a median more than 5 %
// apart, in most pairs.
const nativeBound = 1.05

// solve is a side of a paired comparison: one run of cfg, its wall seconds
// the sample. If last is not nil, *last keeps the side's latest result for
// the counters a figure reports beside the time.
func solve(cfg core.Config, last **core.Result) func() (float64, error) {
	return func() (float64, error) {
		res, err := core.Run(cfg)
		if err != nil {
			return 0, err
		}
		if last != nil {
			*last = res
		}
		return res.Wall.Seconds(), nil
	}
}

// expect is the paper's finding about a configuration against a baseline.
type expect int

const (
	faster expect = iota // faster than the baseline by more than the bound
	slower               // slower than the baseline by more than the bound
	within               // neither faster nor slower by more than the bound
)

// Claim is one native comparison, Alt against Base, read against the
// paper's finding: the runner's Verdict (A is Base, B is Alt) and whether
// it agrees, disagrees, or is unresolved at this host's spread.
type Claim struct {
	Subject, Base, Alt string
	Paper              string // the finding, e.g. "soa slower than aos"
	Bound              float64
	stats.Verdict
	Outcome string
}

// String is the claim's "native:" line.
func (c Claim) String() string {
	return fmt.Sprintf("%s: %s/%s %.3f (medians %.4g and %.4g, %s IQR %.2g; %s faster in %d/%d pairs, %s in %d); paper: %s, bound %.2fx -> %s",
		c.Subject, c.Alt, c.Base, c.B/c.A, c.A, c.B, c.Base, c.IQR, c.Alt, c.BWon, c.Pairs, c.Base, c.AWon, c.Paper, c.Bound, c.Outcome)
}

// agreement reads a verdict against the paper's expectation. A "within"
// finding agrees only when neither side won most pairs past the bound and
// the medians are within it too.
func agreement(e expect, v stats.Verdict, bound float64) string {
	want := map[expect]string{faster: "better", slower: "worse", within: "unresolved"}[e]
	switch {
	case v.Result != want && v.Result == "unresolved":
		return "unresolved"
	case v.Result != want:
		return "disagrees"
	case e == within && max(v.A, v.B) > bound*min(v.A, v.B):
		return "unresolved"
	}
	return "agrees"
}

// compare runs a (c.Base) and b (c.Alt) through the paired runner and files
// c as a claim of f, the paper expecting Alt to be e against Base.
func (f *Figure) compare(opt Options, c Claim, e expect, a, b func() (float64, error)) (stats.Verdict, error) {
	v, err := stats.Compare(pairs(opt), c.Bound, a, b)
	if err != nil {
		return v, err
	}
	c.Paper = fmt.Sprintf("%s %s %s", c.Alt, map[expect]string{faster: "faster than", slower: "slower than",
		within: fmt.Sprintf("within %.2fx of", c.Bound)}[e], c.Base)
	c.Verdict, c.Outcome = v, agreement(e, v, c.Bound)
	f.Claims = append(f.Claims, c)
	return v, nil
}
