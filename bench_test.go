package neutral

// One benchmark per paper table/figure (DESIGN.md §5). Each regenerates its
// figure through the harness and reports the headline number the paper
// plots as a custom metric, so `go test -bench=.` reproduces the entire
// evaluation section. The paper-scale architecture-model workloads are
// cached across iterations; native measurements rerun per iteration.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/archmodel"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/stats"
	"repro/internal/tally"
)

func benchOpts() harness.Options { return harness.Options{Scale: harness.Quick} }

func runFigure(b *testing.B, id string, metrics func(*Figure, *testing.B)) {
	b.Helper()
	exp, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var fig *Figure
	for i := 0; i < b.N; i++ {
		fig, err = exp.Run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if metrics != nil {
		metrics(fig, b)
	}
}

func reportValue(b *testing.B, fig *Figure, row, col, metric string) {
	if v, ok := fig.Value(row, col); ok {
		b.ReportMetric(v, metric)
	}
}

// BenchmarkFig03ThreadScaling regenerates the parallel-efficiency curves.
func BenchmarkFig03ThreadScaling(b *testing.B) {
	runFigure(b, "fig03", func(f *Figure, b *testing.B) {
		reportValue(b, f, "model-broadwell-t22", "neutral-op", "bdw-eff-22t")
		reportValue(b, f, "model-power8-t20", "flow", "p8-flow-eff-20t")
	})
}

// BenchmarkFig04Scheduling regenerates the schedule comparison.
func BenchmarkFig04Scheduling(b *testing.B) {
	runFigure(b, "fig04", func(f *Figure, b *testing.B) {
		reportValue(b, f, "dynamic(1)", "vs-static", "dynamic1-vs-static")
	})
}

// BenchmarkFig05Layout regenerates the SoA-vs-AoS study.
func BenchmarkFig05Layout(b *testing.B) {
	runFigure(b, "fig05", func(f *Figure, b *testing.B) {
		reportValue(b, f, "model-broadwell-1s-csp", "soa/aos", "bdw1s-csp-soa-penalty")
		reportValue(b, f, "model-knl-csp", "soa/aos", "knl-csp-soa-penalty")
	})
}

// BenchmarkFig06Hyperthreading regenerates the SMT study (paper: 1.37x /
// 2.16x / 6.2x).
func BenchmarkFig06Hyperthreading(b *testing.B) {
	runFigure(b, "fig06", func(f *Figure, b *testing.B) {
		reportValue(b, f, "model-broadwell", "neutral-smt-gain", "bdw-smt2-gain")
		reportValue(b, f, "model-knl", "neutral-smt-gain", "knl-smt4-gain")
		reportValue(b, f, "model-power8", "neutral-smt-gain", "p8-smt8-gain")
	})
}

// BenchmarkFig07TallyPrivatisation regenerates the privatisation study
// (paper: 1.16x Broadwell, 1.18x KNL).
func BenchmarkFig07TallyPrivatisation(b *testing.B) {
	runFigure(b, "fig07", func(f *Figure, b *testing.B) {
		reportValue(b, f, "model-broadwell-csp", "speedup", "bdw-csp-speedup")
		reportValue(b, f, "model-knl-csp", "speedup", "knl-csp-speedup")
	})
}

// BenchmarkFig08Vectorisation regenerates the per-kernel vectorisation
// study.
func BenchmarkFig08Vectorisation(b *testing.B) {
	runFigure(b, "fig08", func(f *Figure, b *testing.B) {
		reportValue(b, f, "facet", "broadwell", "bdw-facet-speedup")
		reportValue(b, f, "collision", "knl", "knl-collision-speedup")
	})
}

// BenchmarkFig09Broadwell regenerates the dual-socket Broadwell scheme
// comparison (paper: csp over-events 4.56x slower).
func BenchmarkFig09Broadwell(b *testing.B) {
	runFigure(b, "fig09", func(f *Figure, b *testing.B) {
		reportValue(b, f, "model-csp", "oe/op", "csp-oe-penalty")
	})
}

// BenchmarkFig10KNL regenerates the KNL memory-tier study (paper: 2.38x
// MCDRAM gain for over-events csp; over-events 1.73x faster for scatter).
func BenchmarkFig10KNL(b *testing.B) {
	runFigure(b, "fig10", func(f *Figure, b *testing.B) {
		reportValue(b, f, "over-events-csp", "mcdram-gain", "oe-csp-mcdram-gain")
	})
}

// BenchmarkFig11POWER8 regenerates the POWER8 comparison (paper: csp
// over-events 3.75x slower).
func BenchmarkFig11POWER8(b *testing.B) {
	runFigure(b, "fig11", func(f *Figure, b *testing.B) {
		reportValue(b, f, "model-csp", "oe/op", "csp-oe-penalty")
	})
}

// BenchmarkFig12K20X regenerates the K20X comparison.
func BenchmarkFig12K20X(b *testing.B) {
	runFigure(b, "fig12", func(f *Figure, b *testing.B) {
		reportValue(b, f, "model-csp", "oe/op", "csp-oe-penalty")
	})
}

// BenchmarkFig13P100 regenerates the P100 comparison and its register /
// atomic studies (paper: 3.64x, 1.07x, 1.20x).
func BenchmarkFig13P100(b *testing.B) {
	runFigure(b, "fig13", func(f *Figure, b *testing.B) {
		reportValue(b, f, "model-csp", "oe/op", "csp-oe-penalty")
		reportValue(b, f, "csp-regcap64", "oe/op", "regcap-slowdown")
		reportValue(b, f, "csp-sw-atomics", "oe/op", "hw-atomic-gain")
	})
}

// BenchmarkFig14AllDevices regenerates the final cross-device comparison
// (paper: P100 3.2x vs Broadwell, 4.5x vs K20X on csp).
func BenchmarkFig14AllDevices(b *testing.B) {
	runFigure(b, "fig14", func(f *Figure, b *testing.B) {
		bdw, _ := f.Value("model-broadwell", "csp-s")
		p100, _ := f.Value("model-p100", "csp-s")
		k20x, _ := f.Value("model-k20x", "csp-s")
		if p100 > 0 {
			b.ReportMetric(bdw/p100, "p100-vs-bdw")
			b.ReportMetric(k20x/p100, "p100-vs-k20x")
		}
	})
}

// BenchmarkTextGrindTimes regenerates the in-text grind-time measurements
// (paper: 18 ns collision, 3 ns facet).
func BenchmarkTextGrindTimes(b *testing.B) {
	runFigure(b, "text-grind", func(f *Figure, b *testing.B) {
		reportValue(b, f, "collision (scatter)", "ns-per-event", "collision-ns")
		reportValue(b, f, "facet (stream)", "ns-per-event", "facet-ns")
	})
}

// BenchmarkTextTallyFraction regenerates the tally-share profile (paper:
// ~50% over-particles, ~22% over-events).
func BenchmarkTextTallyFraction(b *testing.B) {
	runFigure(b, "text-tally", func(f *Figure, b *testing.B) {
		reportValue(b, f, "model-broadwell-over-particles", "fraction", "op-tally-fraction")
		reportValue(b, f, "model-broadwell-over-events", "fraction", "oe-tally-fraction")
	})
}

// BenchmarkTextXSSearch regenerates the cached-linear-search comparison
// (paper: 1.3x on csp).
func BenchmarkTextXSSearch(b *testing.B) {
	runFigure(b, "text-search", func(f *Figure, b *testing.B) {
		reportValue(b, f, "production-cached", "speedup-vs-binary", "cached-speedup")
		reportValue(b, f, "production-hashed", "speedup-vs-binary", "hashed-speedup")
	})
}

// BenchmarkTextGPUAtomicsRegisters prices the GPU micro-studies directly
// (paper §VI-H, §VII-E).
func BenchmarkTextGPUAtomicsRegisters(b *testing.B) {
	w, err := archmodel.MeasureWorkload(mesh.CSP, core.OverParticles)
	if err != nil {
		b.Fatal(err)
	}
	base := archmodel.Options{Tally: tally.ModeAtomic}
	var k20Gain, p100Slow float64
	for i := 0; i < b.N; i++ {
		capped := base
		capped.RegisterCap = 64
		k20Gain = archmodel.Predict(&archmodel.K20X, w, base).Seconds /
			archmodel.Predict(&archmodel.K20X, w, capped).Seconds
		p100Slow = archmodel.Predict(&archmodel.P100, w, capped).Seconds /
			archmodel.Predict(&archmodel.P100, w, base).Seconds
	}
	b.ReportMetric(k20Gain, "k20x-regcap-gain")
	b.ReportMetric(p100Slow, "p100-regcap-slowdown")
}

// BenchmarkSolverOverParticles and BenchmarkSolverOverEvents measure the
// native Go solver itself (events/sec on the host).
func BenchmarkSolverOverParticles(b *testing.B) {
	benchSolver(b, core.OverParticles)
}

// BenchmarkSolverOverEvents measures the breadth-first scheme natively.
func BenchmarkSolverOverEvents(b *testing.B) {
	benchSolver(b, core.OverEvents)
}

// BenchmarkSolverSchemeTallyMatrix is the native counterpart of the paper's
// Fig 7 tally study: both schemes on csp and on scatter (the contended case:
// every history deposits around the source), through the shared atomic
// tally, the privatised one, and the privatised one merged at every step —
// the realistic coupled-physics case the paper found slower than atomics —
// at every thread count the host has. Two steps, so the per-step merge runs
// twice.
func BenchmarkSolverSchemeTallyMatrix(b *testing.B) {
	legs := []struct {
		name  string
		mode  tally.Mode
		merge bool
	}{{"atomic", tally.ModeAtomic, false}, {"private", tally.ModePrivate, false}, {"private+merge", tally.ModePrivate, true}}
	for _, scheme := range []core.Scheme{core.OverParticles, core.OverEvents} {
		for _, p := range []mesh.Problem{mesh.CSP, mesh.Scatter} {
			for _, leg := range legs {
				for threads := 1; threads <= runtime.NumCPU(); threads++ {
					b.Run(fmt.Sprintf("%v/%v/%s/t%d", scheme, p, leg.name, threads), func(b *testing.B) {
						cfg := core.Default(p)
						cfg.Steps = 2
						cfg.Scheme, cfg.Threads = scheme, threads
						cfg.Tally, cfg.MergePerStep = leg.mode, leg.merge
						for i := 0; i < b.N; i++ {
							if _, err := core.Run(cfg); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}

// BenchmarkEnsemble measures the ensemble driver across replica counts and
// schemes. The per-worker Simulation reuse (Reset) is the point: allocs/op
// should grow far slower than linearly in replicas, because mesh, tables and
// bank are allocated once per worker, not once per replica.
func BenchmarkEnsemble(b *testing.B) {
	for _, scheme := range []core.Scheme{core.OverParticles, core.OverEvents} {
		for _, reps := range []int{2, 8} {
			b.Run(fmt.Sprintf("%s/r%d", scheme, reps), func(b *testing.B) {
				cfg := core.Default(mesh.CSP)
				cfg.NX, cfg.NY = 128, 128
				cfg.Particles = 500
				cfg.Scheme = scheme
				cfg.Threads = 1
				cfg.Replicas = reps
				b.ReportAllocs()
				var ens *stats.Ensemble
				for i := 0; i < b.N; i++ {
					var err error
					ens, err = stats.RunEnsemble(context.Background(), cfg, stats.Options{Workers: 1})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(ens.AvgRelErr, "avg-relerr")
				b.ReportMetric(ens.FOM, "fom")
			})
		}
	}
}

func benchSolver(b *testing.B, scheme core.Scheme) {
	b.Helper()
	cfg := core.Default(mesh.CSP)
	cfg.NX, cfg.NY = 256, 256
	cfg.Particles = 1000
	cfg.Scheme = scheme
	var events uint64
	var secs float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Counter.TotalEvents()
		secs += res.Wall.Seconds()
	}
	if secs > 0 {
		b.ReportMetric(float64(events)/secs/1e6, "Mevents/s")
	}
}
