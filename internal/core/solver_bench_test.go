package core

import (
	"fmt"
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

// BenchmarkOverEvents times the compacted Over Events scheme at the exact
// default configuration (the BENCH_pr3.json acceptance point), for both
// bank layouts crossed with the locality strategies of DESIGN.md §15
// (row-major storage versus Morton ordering plus the cell-sorted bank),
// reporting the active fraction — the share of the naive scheme's slot
// sweeps that touched in-flight work — and each per-round kernel's
// nanoseconds per visited slot (Result.OEVisitNs) alongside ns/op.
func BenchmarkOverEvents(b *testing.B) {
	for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
		for _, loc := range []struct {
			name string
			ord  mesh.Ordering
			sort int
		}{
			{"row-major", mesh.RowMajor, 0},
			{"morton+sort", mesh.Morton, 1},
		} {
			b.Run(fmt.Sprintf("layout=%v/%s", layout, loc.name), func(b *testing.B) {
				cfg := Default(mesh.CSP)
				cfg.Scheme = OverEvents
				cfg.Layout = layout
				cfg.Ordering = loc.ord
				cfg.SortEvery = loc.sort
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
