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
// crossed with the locality strategies of DESIGN.md §2 and §3 (row-major
// storage versus Morton ordering plus the cell-sorted bank), reporting the active
// fraction — the share of the naive scheme's slot sweeps that touched
// in-flight work — and each per-round kernel's nanoseconds per visited slot
// (Result.OEVisitNs) alongside ns/op. The scatter rows are the event kernel's
// worst case: nearly every visit is one it hands off to advance. The thread
// count is in the row's name, not the runner's core count, so a row runs the
// same work on every host.
func BenchmarkOverEvents(b *testing.B) {
	for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
		for _, loc := range []struct {
			name    string
			problem mesh.Problem
			ord     mesh.Ordering
			sort    int
			threads int
		}{
			{"row-major/t1", mesh.CSP, mesh.RowMajor, 0, 1},
			{"row-major/t2", mesh.CSP, mesh.RowMajor, 0, 2},
			{"morton+sort/t1", mesh.CSP, mesh.Morton, 1, 1},
			{"morton+sort/t2", mesh.CSP, mesh.Morton, 1, 2},
			{"scatter/t1", mesh.Scatter, mesh.RowMajor, 0, 1},
		} {
			b.Run(fmt.Sprintf("layout=%v/%s", layout, loc.name), func(b *testing.B) {
				cfg := Default(loc.problem)
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

// BenchmarkNewSimulation times NewSimulation in three regimes. repeat and
// cold take the stream_big workload's problem (stream, 1536², 1 000
// particles, one thread), the largest mesh of the benchmark; the largest
// setup is scatter_op's, about 20 times stream_big's, for its bank. repeat
// binds a scene the process has bound before, with a new seed each time: the
// mesh and tables are shared. cold clears the artefact memo before each
// bind, with the timer stopped, as a fresh process binds its first scene. The
// births rows take the scatter_op workload's op (scatter, 512², 25 000
// particles) at one and two threads, a repeated scene: the bind is the bank
// and its sampling. core.new_s is the mean per bind.
func BenchmarkNewSimulation(b *testing.B) {
	for _, row := range []struct {
		name       string
		problem    mesh.Problem
		nx, n, thr int
		cold       bool
	}{
		{"repeat", mesh.Stream, 1536, 1000, 1, false},
		{"cold", mesh.Stream, 1536, 1000, 1, true},
		{"births/t1", mesh.Scatter, 512, 25000, 1, false},
		{"births/t2", mesh.Scatter, 512, 25000, 2, false},
	} {
		b.Run(row.name, func(b *testing.B) {
			cfg := Default(row.problem)
			cfg.NX, cfg.NY = row.nx, row.nx
			cfg.Particles, cfg.Threads = row.n, row.thr
			if _, err := NewSimulation(cfg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if row.cold {
					b.StopTimer()
					clearArtefacts()
					b.StartTimer()
				}
				cfg.Seed++
				if _, err := NewSimulation(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "core.new_s")
		})
	}
}

// BenchmarkFinalize times Finalize after the one step of two benchmark
// workloads' ops, each op a fresh simulation built and stepped with the timer
// stopped, so the read is as cold as a solve's: csp_oe's (csp, 512², 2 300
// particles, Over Events, one thread), where the tally total is most of
// the read, and scatter_op's (scatter, 512², 25 000 particles, Over
// Particles, one thread), where the bank's totals are. core.finalize_s is the
// mean per call.
func BenchmarkFinalize(b *testing.B) {
	for _, row := range []struct {
		name      string
		problem   mesh.Problem
		particles int
		scheme    Scheme
	}{
		{"csp_oe", mesh.CSP, 2300, OverEvents},
		{"scatter_op", mesh.Scatter, 25000, OverParticles},
	} {
		b.Run(row.name, func(b *testing.B) {
			cfg := Default(row.problem)
			cfg.NX, cfg.NY = 512, 512
			cfg.Particles, cfg.Scheme, cfg.Threads, cfg.Steps = row.particles, row.scheme, 1, 1
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed++
				sim, err := NewSimulation(cfg)
				if err == nil {
					err = sim.Step()
				}
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				sim.Finalize()
				b.StopTimer()
			}
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "core.finalize_s")
		})
	}
}
