package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/events"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/xs"
)

// frameOf recomputes slot i's event frame from the record: the expressions
// the kernels evaluated in place before the frame existed.
func frameOf(r *run, i int) oeFrame {
	var p particle.Particle
	r.bank.Load(i, &p)
	speed := events.Speed(p.Energy)
	return oeFrame{speed: speed, invSpeed: 1 / speed, invUX: 1 / p.UX, invUY: 1 / p.UY}
}

// sameFrame compares bit patterns: a reciprocal may be ±Inf, and -(1/u) must
// be 1/(-u) down to the sign of a zero.
func sameFrame(a, b oeFrame) bool {
	bits := math.Float64bits
	return bits(a.speed) == bits(b.speed) && bits(a.invSpeed) == bits(b.invSpeed) &&
		bits(a.invUX) == bits(b.invUX) && bits(a.invUY) == bits(b.invUY)
}

// TestOEKernelContract is the event kernel's per-particle contract, checked by
// calling the kernel with one-slot lists: whichever path a visit takes —
// the flat facet path or the hand-off to advance — the record ends where
// advance alone would have left it, bit for bit; the slot lands in exactly the
// bucket of the event advance picks, with its geometry; the visit is counted
// once; and the frame still equals the values recomputed from the record. A
// hand-off that had touched the record or the frame first could not pass: its
// advance would start from a different state. Every in-flight particle of a
// csp and a vacuum run is visited as it stands (facets, mostly) and again with
// its census clock nearly out, inside the dense square with its mean-free-path
// budget nearly spent, and flying along each axis — the states the flat path
// must refuse.
func TestOEKernelContract(t *testing.T) {
	variants := []struct {
		name string
		mod  func(m *mesh.Mesh, p *particle.Particle)
	}{
		{"as-is", func(*mesh.Mesh, *particle.Particle) {}},
		{"census-due", func(_ *mesh.Mesh, p *particle.Particle) { p.TimeToCensus = 1e-13 }},
		{"collision-due", func(m *mesh.Mesh, p *particle.Particle) {
			// Into the middle of the dense centre square.
			p.CellX, p.CellY = int32(m.NX/2), int32(m.NY/2)
			p.X, p.Y = (float64(p.CellX)+0.5)*m.DX, (float64(p.CellY)+0.5)*m.DY
			p.MFPToCollision = 1e-9
		}},
		{"along-x", func(_ *mesh.Mesh, p *particle.Particle) { p.UX, p.UY = math.Copysign(1, p.UX), 0 }},
		{"along-y", func(_ *mesh.Mesh, p *particle.Particle) { p.UX, p.UY = math.Copysign(0, -1), math.Copysign(1, p.UY) }},
	}
	for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
		for _, scene := range []string{"csp", "vacuum"} {
			cfg := goldenConfig(mesh.CSP)
			if scene == "vacuum" {
				cfg = leakConfig(t)
			}
			cfg.Scheme, cfg.Layout = OverEvents, layout
			sim, err := NewSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Step(); err != nil {
				t.Fatal(err)
			}
			r := sim.r
			r.reviveCensus()
			sc, ws := r.oe, r.workers[0]
			seen := map[events.Type]int{}
			flat := 0
			for i := 0; i < r.bank.Len(); i++ {
				if r.bank.StatusOf(i) != particle.Alive {
					continue
				}
				var orig particle.Particle
				r.bank.Load(i, &orig)
				for _, v := range variants {
					start := orig
					v.mod(r.mesh, &start)
					r.bank.Store(i, &start)

					// The reference: lookup, then advance, from a copy.
					want, refWS := start, &workerState{}
					if want.CachedSigmaA < 0 {
						r.lookupXS(refWS, &want)
					}
					fr := frameOf(r, i)
					nd := r.numberDensity(want.CellX, want.CellY)
					sigmaT := (want.CachedSigmaA + want.CachedSigmaS) * xs.BarnsToSquareMetres * nd
					ev, axis, dir := advance(r.mesh, &want, sigmaT, fr.speed, fr.invSpeed, fr.invUX, fr.invUY)
					if ev == events.Census {
						want.Status = particle.Census
					}

					before := ws.c
					nc, nf, ncen := r.eventKernel(ws, []int32{int32(i)}, sc.coll, sc.facet, sc.facetG, sc.census, true)

					var got particle.Particle
					r.bank.Load(i, &got)
					if got != want {
						t.Fatalf("%s/%v slot %d %s (%v):\n kernel  %+v\n advance %+v", scene, layout, i, v.name, ev, got, want)
					}
					if !sameFrame(sc.frame[i], fr) {
						t.Fatalf("%s/%v slot %d %s: frame %+v, recomputed %+v", scene, layout, i, v.name, sc.frame[i], fr)
					}
					wantN := map[events.Type][3]int{events.Collision: {1, 0, 0}, events.Facet: {0, 1, 0}, events.Census: {0, 0, 1}}[ev]
					if gotN := [3]int{nc, nf, ncen}; gotN != wantN {
						t.Fatalf("%s/%v slot %d %s: buckets (coll, facet, census) = %v for a %v", scene, layout, i, v.name, gotN, ev)
					}
					bucket := map[events.Type][]int32{events.Collision: sc.coll, events.Facet: sc.facet, events.Census: sc.census}[ev]
					if bucket[0] != int32(i) || ev == events.Facet && sc.facetG[0] != facetGeom(axis, dir) {
						t.Fatalf("%s/%v slot %d %s: bucket entry %d, geometry %d, want axis %d dir %d", scene, layout, i, v.name, bucket[0], sc.facetG[0], axis, dir)
					}
					wc := before
					wc.Segments++
					wc.DensityReads++
					wc.OEActiveVisits++
					wc.XSLookups += refWS.c.XSLookups
					wc.XSSearchSteps += refWS.c.XSSearchSteps
					if ev == events.Census {
						wc.CensusEvents++
					}
					if ws.c != wc {
						t.Fatalf("%s/%v slot %d %s: counters moved\n from %+v\n to   %+v\n want %+v", scene, layout, i, v.name, before, ws.c, wc)
					}
					seen[ev]++
					if ev == events.Facet && v.name == "as-is" {
						flat++
					}
				}
				r.bank.Store(i, &orig)
			}
			if flat < 50 || seen[events.Collision] < 50 || seen[events.Census] < 50 {
				t.Fatalf("%s/%v: %d flat facets, %d collisions, %d census: the test did not exercise every path", scene, layout, flat, seen[events.Collision], seen[events.Census])
			}
		}
	}
}

// frameProbe checks the event frame at the end of every event kernel it hears
// of, which are worker 0's: for every slot of that worker's window still in
// flight — the round's active list — the frame must equal the values
// recomputed from the record. The first round of a step checks the fill;
// every later round checks what the previous round's collision and facet
// kernels maintained. The other workers are mid-round on their own windows
// meanwhile, which is the point: nothing they do reaches these slots.
type frameProbe struct {
	t      *testing.T
	r      *run
	rounds int
	window []int32 // worker 0's window of the step's gathered list; nil between steps
}

func (p *frameProbe) StartRegion(string) {}

func (p *frameProbe) EndRegion(name string) {
	if name == "tally-kernel" {
		p.window = nil
	}
	if name != "event-kernel" || p.t.Failed() {
		return
	}
	p.rounds++
	if p.window == nil {
		// A window's first round reads the gathered list and writes only the
		// buckets, so the static schedule's first share is still in place.
		all := p.r.oe.active
		p.window = append(p.window, all[:len(all)/p.r.cfg.Threads]...)
	}
	for _, slot := range p.window {
		if p.r.bank.StatusOf(int(slot)) != particle.Alive {
			continue
		}
		if got, want := p.r.oe.frame[slot], frameOf(p.r, int(slot)); !sameFrame(got, want) {
			p.t.Errorf("round %d slot %d: frame %+v, recomputed %+v", p.rounds, slot, got, want)
			return
		}
	}
}

// TestOEFrameCoherent runs Over Events under frameProbe through everything
// that changes a frame input or moves a slot: collisions and reflections
// (csp), vacuum escapes, weight-window splits that grow the bank with a
// per-step cell sort that permutes it, and a snapshot→restore after the first
// step — for both layouts, both mesh orderings, one thread and four.
func TestOEFrameCoherent(t *testing.T) {
	scenes := []struct {
		name string
		cfg  func() Config
	}{
		{"csp", func() Config { return goldenConfig(mesh.CSP) }},
		{"vacuum", func() Config { return leakConfig(t) }},
		{"window+sort", func() Config {
			cfg := wwConfig(mesh.CSP)
			cfg.SortEvery = 1
			return cfg
		}},
	}
	for _, sc := range scenes {
		for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
			for _, ord := range []mesh.Ordering{mesh.RowMajor, mesh.Morton} {
				for _, threads := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%v/%v/threads=%d", sc.name, layout, ord, threads), func(t *testing.T) {
						cfg := sc.cfg()
						cfg.Scheme, cfg.Layout, cfg.Ordering, cfg.Threads = OverEvents, layout, ord, threads
						sim, err := NewSimulation(cfg)
						if err != nil {
							t.Fatal(err)
						}
						probe := &frameProbe{t: t, r: sim.r}
						sim.SetRegionProbe(probe)
						if err := sim.Step(); err != nil {
							t.Fatal(err)
						}
						if sim, err = RestoreSimulation(cfg, sim.Snapshot()); err != nil {
							t.Fatal(err)
						}
						probe.r = sim.r
						sim.SetRegionProbe(probe)
						res, err := sim.Run()
						if err != nil {
							t.Fatal(err)
						}
						// A step has as many rounds as its longest window: the one
						// window of a one-thread run, and at four threads maybe
						// not worker 0's.
						c := res.Counter
						if n := uint64(probe.rounds); n == 0 || n > c.OERounds || threads == 1 && n != c.OERounds ||
							c.CollisionEvents == 0 || c.Reflections == 0 {
							t.Fatalf("probe saw %d of %d rounds; %d collisions, %d reflections", probe.rounds, c.OERounds, c.CollisionEvents, c.Reflections)
						}
						if sc.name == "vacuum" && c.Escapes == 0 {
							t.Fatal("no escapes")
						}
						if sc.name == "window+sort" && (c.WWChildren == 0 || res.Phases[PhaseSort] == 0) {
							t.Fatalf("window+sort: %d children, sort time %v", c.WWChildren, res.Phases[PhaseSort])
						}
					})
				}
			}
		}
	}
}
