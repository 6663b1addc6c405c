package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/events"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/tally"
	"repro/internal/xs"
)

// tallyLeg is one way of running the tally through a test matrix.
type tallyLeg struct {
	name         string
	mode         tally.Mode
	mergePerStep bool
	threads      int // 0 leaves the thread count to the matrix
}

// The tally legs of the equivalence matrices. "buffered" and "serial" keep
// the names of the two modes the fixed-point tally made redundant — tier-1's
// floor list pins subtest names — and run what is left of each: per-worker
// buffers merged at every step boundary, and the single-writer plain add.
var (
	legAtomic   = tallyLeg{name: "atomic", mode: tally.ModeAtomic}
	legPrivate  = tallyLeg{name: "private", mode: tally.ModePrivate}
	legBuffered = tallyLeg{name: "buffered", mode: tally.ModePrivate, mergePerStep: true}
	legSerial   = tallyLeg{name: "serial", mode: tally.ModeAtomic, threads: 1}
)

func (l tallyLeg) String() string { return l.name }

func (l tallyLeg) apply(cfg *Config) {
	cfg.Tally, cfg.MergePerStep = l.mode, l.mergePerStep
	if l.threads != 0 {
		cfg.Threads = l.threads
	}
}

// TestSchemeEquivalence is the central correctness property of the
// reproduction: Over Particles and Over Events must produce identical
// physics. The counter-based RNG gives every particle its own stream, so
// the two traversal orders consume identical variates and the final
// particle records must agree bit for bit; the tally is a sum of the same
// deposits in integer ticks, so it agrees bit for bit too, and every event
// counter matches exactly.
func TestSchemeEquivalence(t *testing.T) {
	for _, p := range []mesh.Problem{mesh.Stream, mesh.Scatter, mesh.CSP} {
		cfgOP := smallConfig(p)
		cfgOP.Scheme = OverParticles
		cfgOE := smallConfig(p)
		cfgOE.Scheme = OverEvents

		rop, err := Run(cfgOP)
		if err != nil {
			t.Fatalf("%v over-particles: %v", p, err)
		}
		roe, err := Run(cfgOE)
		if err != nil {
			t.Fatalf("%v over-events: %v", p, err)
		}

		compareBanks(t, rop.Bank, roe.Bank)

		cop, coe := rop.Counter, roe.Counter
		type pair struct {
			name   string
			op, oe uint64
		}
		for _, c := range []pair{
			{"facet events", cop.FacetEvents, coe.FacetEvents},
			{"collision events", cop.CollisionEvents, coe.CollisionEvents},
			{"census events", cop.CensusEvents, coe.CensusEvents},
			{"reflections", cop.Reflections, coe.Reflections},
			{"deaths", cop.Deaths, coe.Deaths},
			{"segments", cop.Segments, coe.Segments},
			{"xs lookups", cop.XSLookups, coe.XSLookups},
			{"xs search steps", cop.XSSearchSteps, coe.XSSearchSteps},
			{"tally flushes", cop.TallyFlushes, coe.TallyFlushes},
			{"rng draws", cop.RNGDraws, coe.RNGDraws},
		} {
			if c.op != c.oe {
				t.Errorf("%v: %s differ: over-particles %d, over-events %d", p, c.name, c.op, c.oe)
			}
		}

		if rop.TallyTotal != roe.TallyTotal {
			t.Errorf("%v: tallies differ: %.17g vs %.17g", p, rop.TallyTotal, roe.TallyTotal)
		}
		if !reflect.DeepEqual(rop.Cells, roe.Cells) {
			t.Errorf("%v: per-cell tallies differ", p)
		}
	}
}

// TestXSSearchStepsSchemeInvariant pins the search-step counter: Over
// Particles and Over Events agree on it for every table size, across two
// steps, at any thread count and across a mid-run snapshot/restore, and the
// walk after the bucket jump stays short.
func TestXSSearchStepsSchemeInvariant(t *testing.T) {
	for _, points := range []int{2, 3, 100, 1024, 4096} {
		cfg := smallConfig(mesh.CSP)
		cfg.XSPoints = points
		cfg.Steps = 2
		ref, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Counter
		if want.XSLookups == 0 {
			t.Fatalf("points=%d: no lookups", points)
		}
		if mean := float64(want.XSSearchSteps) / float64(want.XSLookups); points >= 100 && mean > 1.5 {
			t.Errorf("points=%d: mean walk %.2f steps per lookup, want < 1.5", points, mean)
		}
		for _, scheme := range []Scheme{OverParticles, OverEvents} {
			cfg.Scheme = scheme
			cfg.Threads = 3
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counter.XSLookups != want.XSLookups || res.Counter.XSSearchSteps != want.XSSearchSteps {
				t.Errorf("points=%d %v: %d lookups / %d steps, want %d / %d", points, scheme,
					res.Counter.XSLookups, res.Counter.XSSearchSteps, want.XSLookups, want.XSSearchSteps)
			}

			sim, err := NewSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Step(); err != nil {
				t.Fatal(err)
			}
			resumed, err := RestoreSimulation(cfg, sim.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Step(); err != nil {
				t.Fatal(err)
			}
			if got := resumed.Finalize().Counter.XSSearchSteps; got != want.XSSearchSteps {
				t.Errorf("points=%d %v: %d steps after snapshot/restore, want %d", points, scheme,
					got, want.XSSearchSteps)
			}
		}
	}
}

// TestSchemeEquivalenceMultiStep extends the equivalence across census
// revival boundaries.
func TestSchemeEquivalenceMultiStep(t *testing.T) {
	cfgOP := smallConfig(mesh.CSP)
	cfgOP.Steps = 2
	cfgOE := cfgOP
	cfgOE.Scheme = OverEvents
	rop, err := Run(cfgOP)
	if err != nil {
		t.Fatal(err)
	}
	roe, err := Run(cfgOE)
	if err != nil {
		t.Fatal(err)
	}
	compareBanks(t, rop.Bank, roe.Bank)
	if rop.Counter.TotalEvents() != roe.Counter.TotalEvents() {
		t.Errorf("multi-step event totals differ: %d vs %d",
			rop.Counter.TotalEvents(), roe.Counter.TotalEvents())
	}
}

// TestOverEventsBookkeeping checks the Over Events-specific counters that
// feed the architecture model: rounds are bounded by the longest history
// and slot sweeps reflect the four-kernels-per-round structure.
func TestOverEventsBookkeeping(t *testing.T) {
	cfg := smallConfig(mesh.Scatter)
	cfg.Scheme = OverEvents
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counter
	if c.OERounds == 0 {
		t.Fatal("no rounds recorded")
	}
	// Each round sweeps the full list in 4 kernels, plus one census sweep
	// per step.
	wantSweeps := (4*c.OERounds + uint64(cfg.Steps)) * uint64(cfg.Particles)
	if c.OESlotSweeps != wantSweeps {
		t.Errorf("slot sweeps = %d, want %d (4 kernels x %d rounds + census)",
			c.OESlotSweeps, wantSweeps, c.OERounds)
	}
	// Rounds must cover the longest history: at least
	// max events per particle, at most segments+2.
	if c.OERounds > c.Segments {
		t.Errorf("rounds %d exceed total segments %d", c.OERounds, c.Segments)
	}
	// The compacted kernels visit exactly the active work: one event-
	// kernel visit per segment, one handler visit per collision and per
	// facet (tally+facet fused), one census-kernel visit per census
	// event. Any drift here means a kernel is sweeping slots it should
	// have compacted away (or skipping ones it must touch).
	wantVisits := c.Segments + c.CollisionEvents + c.FacetEvents + c.CensusEvents
	if c.OEActiveVisits != wantVisits {
		t.Errorf("active visits = %d, want %d (segments+collisions+facets+census)",
			c.OEActiveVisits, wantVisits)
	}
	if f := c.OEActiveFraction(); f <= 0 || f >= 1 {
		t.Errorf("active fraction %.3f outside (0, 1)", f)
	}
	// Over Particles leaves these counters untouched.
	cfg.Scheme = OverParticles
	rop, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rop.Counter.OERounds != 0 || rop.Counter.OESlotSweeps != 0 || rop.Counter.OEActiveVisits != 0 {
		t.Error("over-particles recorded over-events bookkeeping")
	}
}

// TestCompactionEquivalenceMatrix pins the compacted Over Events scheme to
// the Over Particles reference across both bank layouts and both tally
// implementations (the shared atomic mesh, and per-worker meshes merged every
// step): final particle records, every physics counter, the tally total and
// every tally cell, all exactly. This is the safety net the compaction
// rewrite leans on — it may not change per-particle physics.
func TestCompactionEquivalenceMatrix(t *testing.T) {
	for _, p := range []mesh.Problem{mesh.Scatter, mesh.CSP} {
		ref := smallConfig(p)
		ref.Scheme = OverParticles
		rop, err := Run(ref)
		if err != nil {
			t.Fatalf("%v reference: %v", p, err)
		}
		for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
			for _, leg := range []tallyLeg{legAtomic, legBuffered} {
				t.Run(fmt.Sprintf("%v/%v/%v", p, layout, leg), func(t *testing.T) {
					cfg := smallConfig(p)
					cfg.Scheme = OverEvents
					cfg.Layout = layout
					leg.apply(&cfg)
					roe, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					compareBanks(t, rop.Bank, roe.Bank)
					if rop.Counter.TotalEvents() != roe.Counter.TotalEvents() ||
						rop.Counter.Deaths != roe.Counter.Deaths ||
						rop.Counter.TallyFlushes != roe.Counter.TallyFlushes ||
						rop.Counter.RNGDraws != roe.Counter.RNGDraws {
						t.Errorf("physics counters differ:\nop %+v\noe %+v", rop.Counter, roe.Counter)
					}
					if rop.TallyTotal != roe.TallyTotal {
						t.Errorf("tally totals differ: %.17g vs %.17g", rop.TallyTotal, roe.TallyTotal)
					}
					if !reflect.DeepEqual(rop.Cells, roe.Cells) {
						t.Fatalf("cells differ: %+v vs %+v", rop.Cells, roe.Cells)
					}
				})
			}
		}
	}
}

// TestPhaseTimingsByScheme checks the per-kernel timing split exists for
// Over Events (the paper profiles kernels separately) and is absent for the
// fused Over Particles loop.
func TestPhaseTimingsByScheme(t *testing.T) {
	cfg := smallConfig(mesh.CSP)
	cfg.Scheme = OverEvents
	roe, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if roe.Phases[PhaseEventKernel] <= 0 || roe.Phases[PhaseTallyKernel] <= 0 {
		t.Errorf("over-events kernel timings missing: %+v", roe.Phases)
	}
	if roe.Phases[PhaseFused] != 0 {
		t.Error("over-events recorded fused-loop time")
	}

	cfg.Scheme = OverParticles
	rop, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rop.Phases[PhaseFused] <= 0 {
		t.Error("over-particles fused-loop time missing")
	}
	if rop.Phases[PhaseEventKernel] != 0 {
		t.Error("over-particles recorded kernel time")
	}
}

// TestStreakEquivalenceMatrix pins the Over Particles facet streak to
// event-by-event transport. The reference is Over Events at one thread —
// one event per kernel pass, reciprocals recomputed at every pass, no streak
// anywhere — and every Over Particles cell of bank layout × mesh ordering ×
// tally leg × thread count × {straight run, snapshot→restore after step 1}
// must end with the same bank, the same physics counters, the same leakage
// and the same per-cell tally, all bit for bit. Scenes: stream (streaks hundreds of cells long,
// ended by reflections and census), csp (collisions in the dense square hand
// a deposit to the next crossing, whose general-path flush empties the
// register before the streak resumes), and the csp geometry with two vacuum
// edges (streaks that end in an escape). On the vacuum scene at four threads
// the matrix also holds Over Events itself to its one-thread reference,
// counters included.
func TestStreakEquivalenceMatrix(t *testing.T) {
	scenes := []struct {
		name string
		cfg  func() Config
	}{
		{"stream", func() Config { return goldenConfig(mesh.Stream) }},
		{"csp", func() Config { return goldenConfig(mesh.CSP) }},
		{"vacuum", func() Config { return leakConfig(t) }},
	}
	for _, sc := range scenes {
		ref := sc.cfg()
		ref.Scheme = OverEvents
		want, err := Run(ref)
		if err != nil {
			t.Fatalf("%s reference: %v", sc.name, err)
		}
		if sc.name == "vacuum" && want.Counter.Escapes == 0 {
			t.Fatal("vacuum scene produced no escapes")
		}
		for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
			for _, ord := range []mesh.Ordering{mesh.RowMajor, mesh.Morton} {
				for _, tm := range []tallyLeg{legAtomic, legBuffered} {
					for _, threads := range []int{1, 4} {
						for _, restore := range []bool{false, true} {
							// Over Events joins the matrix where its kernels share the
							// most: four workers writing the event frame and compacting
							// escapes out of their segments.
							schemes := []Scheme{OverParticles}
							if sc.name == "vacuum" && threads == 4 {
								schemes = append(schemes, OverEvents)
							}
							for _, scheme := range schemes {
								name := fmt.Sprintf("%s/%v/%v/%v/threads=%d/restore=%t", sc.name, layout, ord, tm, threads, restore)
								if scheme == OverEvents {
									name += "/over-events"
								}
								t.Run(name, func(t *testing.T) {
									cfg := sc.cfg()
									cfg.Scheme = scheme
									cfg.Layout, cfg.Ordering, cfg.Threads = layout, ord, threads
									tm.apply(&cfg)
									sim, err := NewSimulation(cfg)
									if err != nil {
										t.Fatal(err)
									}
									if restore {
										if err := sim.Step(); err != nil {
											t.Fatal(err)
										}
										if sim, err = RestoreSimulation(cfg, sim.Snapshot()); err != nil {
											t.Fatal(err)
										}
									}
									got, err := sim.Run()
									if err != nil {
										t.Fatal(err)
									}
									compareBanks(t, want.Bank, got.Bank)
									wc, gc := want.Counter, got.Counter
									if scheme == OverParticles {
										// Scheme-local bookkeeping: Over Events counts a
										// density read every pass, and its rounds.
										wc.DensityReads, wc.OERounds, wc.OESlotSweeps, wc.OEActiveVisits = gc.DensityReads, 0, 0, 0
									}
									if wc != gc {
										t.Errorf("counters differ:\nevent-by-event %+v\nstreak         %+v", wc, gc)
									}
									if want.Leakage != got.Leakage {
										t.Errorf("leakage differs:\nevent-by-event %+v\nstreak         %+v", want.Leakage, got.Leakage)
									}
									if want.TallyTotal != got.TallyTotal {
										t.Errorf("tally totals differ: %.17g vs %.17g", want.TallyTotal, got.TallyTotal)
									}
									if !reflect.DeepEqual(want.Cells, got.Cells) {
										t.Fatalf("cells differ: %+v vs %+v", want.Cells, got.Cells)
									}
									if got.Conservation.RelativeError > 1e-12 {
										t.Errorf("conservation error %.3g", got.Conservation.RelativeError)
									}
								})
							}
						}
					}
				}
			}
		}
	}
}

// numberDensity is the kernels' density gather by its definition — the
// conversion applied to the cell's own density — so a test that feeds it to
// the reference side also checks the per-material table against the field.
func (r *run) numberDensity(cx, cy int32) float64 {
	return xs.NumberDensity(r.mesh.Density(int(cx), int(cy)))
}

// TestStreakContract is the streak's entry/exit contract, checked on every
// in-flight particle of a csp run after its first step: from the same state,
// the streak and event-by-event advance/ApplyFacet reach the same record
// after the same number of interior crossings, bit for bit, with the same
// number density in hand; the streak counted exactly those crossings; and
// the event it stopped short of is left whole — the next advance from the
// written-back state is a collision, census, reflection or escape, never
// another interior crossing.
func TestStreakContract(t *testing.T) {
	for _, name := range []string{"csp", "vacuum"} {
		cfg := goldenConfig(mesh.CSP)
		if name == "vacuum" {
			cfg = leakConfig(t)
		}
		sim, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		r := sim.r
		r.reviveCensus()
		streaks, longest := 0, uint64(0)
		for i := 0; i < r.bank.Len(); i++ {
			if r.bank.StatusOf(i) != particle.Alive {
				continue
			}
			var start particle.Particle
			r.bank.Load(i, &start)
			ws := &workerState{}
			if start.CachedSigmaA < 0 {
				r.lookupXS(ws, &start)
			}
			sigma := (start.CachedSigmaA + start.CachedSigmaS) * xs.BarnsToSquareMetres
			speed := events.Speed(start.Energy)
			invSpeed, invUX, invUY := 1/speed, 1/start.UX, 1/start.UY
			nd0 := r.numberDensity(start.CellX, start.CellY)

			fast := start
			fastWS := &workerState{}
			ndFast := r.streak(fastWS, &fast, nd0, sigma, invSpeed, invUX, invUY)
			n := fastWS.c.FacetEvents
			if fastWS.c.Segments != n || fastWS.c.TallyFlushes != n || fastWS.c.DensityReads != n {
				t.Fatalf("%s particle %d: streak counted %+v for %d crossings", name, i, fastWS.c, n)
			}

			slow, ndSlow := start, nd0
			for k := uint64(0); k < n; k++ {
				ev, axis, dir := advance(r.mesh, &slow, sigma*ndSlow, speed, invSpeed, invUX, invUY)
				if ev != events.Facet || events.ApplyFacet(r.mesh, &slow, axis, dir) != events.FacetCrossed {
					t.Fatalf("%s particle %d: event-by-event crossing %d of %d is not an interior crossing", name, i, k, n)
				}
				ndSlow = r.numberDensity(slow.CellX, slow.CellY)
			}
			if fast != slow || ndFast != ndSlow {
				t.Fatalf("%s particle %d after %d crossings:\n streak         %+v nd=%v\n event-by-event %+v nd=%v", name, i, n, fast, ndFast, slow, ndSlow)
			}
			next := fast
			if ev, axis, dir := advance(r.mesh, &next, sigma*ndFast, speed, invSpeed, invUX, invUY); ev == events.Facet &&
				events.ApplyFacet(r.mesh, &next, axis, dir) == events.FacetCrossed {
				t.Fatalf("%s particle %d: streak stopped before an interior crossing", name, i)
			}
			if n > 0 {
				streaks++
			}
			if n > longest {
				longest = n
			}
		}
		if streaks < 10 || longest < 10 {
			t.Fatalf("%s: only %d streaks, longest %d crossings: the test did not exercise the loop", name, streaks, longest)
		}
	}
}
