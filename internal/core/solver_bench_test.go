package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/particle"
)

// BenchmarkUninterruptedSolve times the plain one-shot solve path — the
// Run → Simulation.Drive loop with no checkpointing, streaming or resume —
// so CI's bench job catches any throughput tax the lifecycle machinery
// might grow.

func BenchmarkUninterruptedSolve(b *testing.B) {
	cfg := Default(mesh.CSP)
	cfg.NX, cfg.NY = 512, 512
	cfg.Particles = 20000
	cfg.Threads = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverEvents times the compacted Over Events scheme at the default
// configuration (the BENCH_pr3.json acceptance point), for both bank layouts
// crossed with the locality strategies of DESIGN.md §15 (row-major storage
// versus Morton ordering plus the cell-sorted bank), reporting the active
// fraction — the share of the naive scheme's slot sweeps that touched
// in-flight work — and each per-round kernel's nanoseconds per visited slot
// (Result.OEVisitNs) alongside ns/op. The thread count is in the row's name,
// not the runner's core count: benchgate compares a row to a baseline recorded
// elsewhere.
func BenchmarkOverEvents(b *testing.B) {
	for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
		for _, loc := range []struct {
			name    string
			ord     mesh.Ordering
			sort    int
			threads int
		}{
			{"row-major/t1", mesh.RowMajor, 0, 1},
			{"row-major/t2", mesh.RowMajor, 0, 2},
			{"morton+sort/t1", mesh.Morton, 1, 1},
			{"morton+sort/t2", mesh.Morton, 1, 2},
		} {
			b.Run(fmt.Sprintf("layout=%v/%s", layout, loc.name), func(b *testing.B) {
				cfg := Default(mesh.CSP)
				cfg.Scheme = OverEvents
				cfg.Layout = layout
				cfg.Ordering = loc.ord
				cfg.SortEvery = loc.sort
				cfg.Threads = loc.threads
				var frac, ev, coll, facet float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					frac = res.Counter.OEActiveFraction()
					e, c, f := res.OEVisitNs()
					ev, coll, facet = ev+e, coll+c, facet+f
				}
				b.ReportMetric(frac, "active-fraction")
				b.ReportMetric(ev/float64(b.N), "event-ns/visit")
				b.ReportMetric(coll/float64(b.N), "collision-ns/visit")
				b.ReportMetric(facet/float64(b.N), "facet-ns/visit")
			})
		}
	}
}

// BenchmarkLocality separates the two locality knobs the BenchmarkOverEvents
// rows (and BENCH_pr10) only ever measured together: Morton storage order
// alone, the per-step bank sort alone, and the pair, against row-major — for
// both schemes and layouts, on csp and stream, at the mesh size where the
// mesh-shaped arrays are many times the cache (2048², 2 000 particles, one
// step, one thread). solve-ms is Result.Wall, which excludes the setup that
// dominates ns/op at this size; repeat the whole matrix (not each row) to
// alternate configurations, and take each row's minimum.
func BenchmarkLocality(b *testing.B) {
	for _, problem := range []mesh.Problem{mesh.CSP, mesh.Stream} {
		for _, scheme := range []Scheme{OverParticles, OverEvents} {
			for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
				for _, loc := range []struct {
					name string
					ord  mesh.Ordering
					sort int
				}{
					{"row-major", mesh.RowMajor, 0},
					{"morton", mesh.Morton, 0},
					{"sort", mesh.RowMajor, 1},
					{"morton+sort", mesh.Morton, 1},
				} {
					b.Run(fmt.Sprintf("%v/%v/layout=%v/%s", problem, scheme, layout, loc.name), func(b *testing.B) {
						cfg := Default(problem)
						cfg.NX, cfg.NY = 2048, 2048
						cfg.Threads = 1
						cfg.Scheme, cfg.Layout = scheme, layout
						cfg.Ordering, cfg.SortEvery = loc.ord, loc.sort
						best := math.Inf(1)
						for i := 0; i < b.N; i++ {
							res, err := Run(cfg)
							if err != nil {
								b.Fatal(err)
							}
							best = min(best, res.Wall.Seconds()*1e3)
						}
						b.ReportMetric(best, "solve-ms")
					})
				}
			}
		}
	}
}

// BenchmarkSnapshot times the per-step checkpoint of the service's reference
// job (csp, 256², 2 000 particles, mid-run so the tally is populated): the
// fixed cost every service step pays next to the solve. B/op is the snapshot:
// one allocation of its exact size.
func BenchmarkSnapshot(b *testing.B) {
	cfg := Default(mesh.CSP)
	cfg.NX, cfg.NY = 256, 256
	cfg.Particles = 2000
	cfg.Steps = 20
	cfg.Threads = 1
	sim, err := NewSimulation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := sim.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(sim.Snapshot())
	}
	b.SetBytes(int64(n))
}
