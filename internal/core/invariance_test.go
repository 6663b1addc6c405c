package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/tally"
)

// TestResultInvariance is the determinism contract, stated once: what a
// configuration computes does not depend on how it is executed. For csp and
// the vacuum-leak scene, every cell of scheme × layout × tally × thread count
// × schedule × sort interval × {uninterrupted, snapshot→restore at every
// step boundary} ends with the tally total, every tally cell and the
// per-edge leakage equal, ==, to one reference run (Over Particles, AoS,
// atomic, one thread, static, unsorted, uninterrupted). The counter vector
// and the bytes of the final Snapshot carry scheme-local bookkeeping, the
// layout tag and — under the sort — the bank's slot order, so those two are
// held to the one-thread atomic run of the same scheme, layout and sort
// interval.
//
// Each scene then adds the edges of the Over Events partition, where a worker
// owns one window of the step's active list until it is empty: populations of
// 1, 3 and 257 at two and eight threads — more workers than work, windows that
// empty rounds apart — held the same way to the one-thread run of that
// population.
func TestResultInvariance(t *testing.T) {
	scenes := []struct {
		name string
		cfg  func() Config
	}{
		{"csp", func() Config { return goldenConfig(mesh.CSP) }},
		{"vacuum", func() Config { return leakConfig(t) }},
	}
	type strategy struct {
		scheme    Scheme
		layout    particle.Layout
		sortEvery int
	}
	type outcome struct {
		res  *Result
		snap []byte
	}
	for _, sc := range scenes {
		run := func(t *testing.T, cfg Config, restore bool) outcome {
			sim, err := NewSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for !sim.Done() {
				if err := sim.Step(); err != nil {
					t.Fatal(err)
				}
				if restore && !sim.Done() {
					if sim, err = RestoreSimulation(cfg, sim.Snapshot()); err != nil {
						t.Fatal(err)
					}
				}
			}
			snap := sim.Snapshot()
			return outcome{sim.Finalize(), snap}
		}
		// hold compares a run's results to ref and its bookkeeping to same.
		hold := func(name string, got outcome, ref *Result, same *outcome) {
			if got.res.TallyTotal != ref.TallyTotal {
				t.Errorf("%s: tally total %.17g, reference %.17g", name, got.res.TallyTotal, ref.TallyTotal)
			}
			if !slices.Equal(got.res.Cells, ref.Cells) {
				t.Errorf("%s: tally cells differ from the reference", name)
			}
			if got.res.Leakage != ref.Leakage {
				t.Errorf("%s: leakage %+v, reference %+v", name, got.res.Leakage, ref.Leakage)
			}
			if got.res.Counter != same.res.Counter {
				t.Errorf("%s: counters\n got %+v\nwant %+v", name, got.res.Counter, same.res.Counter)
			}
			if !bytes.Equal(got.snap, same.snap) {
				t.Errorf("%s: final snapshot differs from the one-thread atomic run's", name)
			}
		}
		var ref *Result
		for _, scheme := range []Scheme{OverParticles, OverEvents} {
			for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
				for _, sortEvery := range []int{0, 1} {
					var same *outcome // the one-thread atomic run of this strategy
					for _, tm := range []tally.Mode{tally.ModeAtomic, tally.ModePrivate} {
						for _, threads := range []int{1, 2, 3, 8} {
							for _, sched := range []ScheduleKind{ScheduleStatic, ScheduleStaticChunk, ScheduleDynamic, ScheduleGuided} {
								for _, restore := range []bool{false, true} {
									name := fmt.Sprintf("%s/%v/%v/sort=%d/%v/threads=%d/%v/restore=%t",
										sc.name, scheme, layout, sortEvery, tm, threads, sched, restore)
									cfg := sc.cfg()
									cfg.Steps = 3
									cfg.KeepBank = false
									cfg.Scheme, cfg.Layout, cfg.SortEvery = scheme, layout, sortEvery
									cfg.Tally, cfg.Threads, cfg.Schedule.Kind = tm, threads, sched
									got := run(t, cfg, restore)
									if ref == nil {
										ref = got.res
										if ref.TallyTotal <= 0 || (sc.name == "vacuum" && ref.Leakage.TotalEnergy() <= 0) {
											t.Fatalf("%s: reference deposited %g and leaked %g", sc.name, ref.TallyTotal, ref.Leakage.TotalEnergy())
										}
									}
									if same == nil {
										same = &got
									}
									hold(name, got, ref, same)
								}
							}
						}
					}
				}
			}
		}
		for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
			for _, particles := range []int{1, 3, 257} {
				var one outcome
				for _, threads := range []int{1, 2, 8} {
					cfg := sc.cfg()
					cfg.Steps = 3
					cfg.KeepBank = false
					cfg.Scheme, cfg.Layout, cfg.Particles, cfg.Threads = OverEvents, layout, particles, threads
					got := run(t, cfg, false)
					if threads == 1 {
						one = got
						if got.res.Counter.OERounds == 0 {
							t.Fatalf("%s/%v/particles=%d: no rounds", sc.name, layout, particles)
						}
					}
					hold(fmt.Sprintf("%s/%v/%v/particles=%d/threads=%d", sc.name, OverEvents, layout, particles, threads), got, one.res, &one)
				}
			}
		}
	}
}
