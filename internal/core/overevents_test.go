package core

import (
	"fmt"
	"math"
	"slices"
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

// oeVisitStates are the states the event kernel tests put an in-flight
// particle in: as it stands, then each one the flat path must refuse —
// cross sections a collision invalidated, its census clock nearly out,
// inside the dense square with its mean-free-path budget nearly spent, and
// flying along each axis.
var oeVisitStates = []struct {
	name string
	mod  func(m *mesh.Mesh, p *particle.Particle)
}{
	{"as-is", func(*mesh.Mesh, *particle.Particle) {}},
	{"xs-invalid", func(_ *mesh.Mesh, p *particle.Particle) { p.CachedSigmaA, p.CachedSigmaS = -1, -1 }},
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

// TestOEKernelContract is the event kernel's per-particle contract, checked by
// calling the kernel with one-slot lists: whichever path a visit takes —
// the flat facet path or the hand-off to advance — the record ends where
// advance alone would have left it, bit for bit; the slot lands in exactly the
// bucket of the event advance picks, with its geometry; the visit is counted
// once; and the frame still equals the values recomputed from the record. A
// hand-off that had touched the record or the frame first could not pass: its
// advance would start from a different state. Every in-flight particle of a
// csp and a vacuum run is visited in each of oeVisitStates: as it stands
// (facets, mostly) and in every state the flat path must refuse.
func TestOEKernelContract(t *testing.T) {
	variants := oeVisitStates
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
					nc, nf, ncen := r.eventKernel(ws, []int32{int32(i)}, sc.next, sc.coll, sc.facet, sc.facetG, sc.census, true)

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

// TestOEKernelWindow is the event kernel's contract over one whole window,
// where visits that take the flat path and visits it hands off share the
// buckets. The window is every in-flight particle of a csp run, cycling
// through oeVisitStates with extra slots left as they stand. Each slot's
// record and frame end as advance alone leaves them; each bucket holds the
// slots whose event advance picks, with their geometry; and the facet bucket
// lists the slots the flat path took, in visit order, then the facets handed
// off, in visit order.
func TestOEKernelWindow(t *testing.T) {
	for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
		cfg := goldenConfig(mesh.CSP)
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

		// The window, and what advance alone makes of each of its slots.
		type ref struct {
			rec   particle.Particle
			frame oeFrame
			ev    events.Type
			geom  uint8
			plain bool // the flat path takes it
		}
		var window []int32
		refWS := &workerState{}
		want := map[int32]ref{}
		for i := 0; i < r.bank.Len(); i++ {
			if r.bank.StatusOf(i) != particle.Alive {
				continue
			}
			state := len(window) % (len(oeVisitStates) + 2) // the last two as they stand
			if state >= len(oeVisitStates) {
				state = 0
			}
			var p particle.Particle
			r.bank.Load(i, &p)
			oeVisitStates[state].mod(r.mesh, &p)
			r.bank.Store(i, &p)

			w := ref{rec: p, frame: frameOf(r, i)}
			if p.CachedSigmaA < 0 {
				r.lookupXS(refWS, &w.rec)
			}
			sigmaT := (w.rec.CachedSigmaA + w.rec.CachedSigmaS) * xs.BarnsToSquareMetres * r.numberDensity(p.CellX, p.CellY)
			ev, axis, dir := advance(r.mesh, &w.rec, sigmaT, w.frame.speed, w.frame.invSpeed, w.frame.invUX, w.frame.invUY)
			if ev == events.Census {
				w.rec.Status = particle.Census
			}
			w.ev, w.geom = ev, facetGeom(axis, dir)
			w.plain = state == 0 && ev == events.Facet
			window = append(window, int32(i))
			want[int32(i)] = w
		}

		before := ws.c
		nc, nf, ncen := r.eventKernel(ws, window, sc.next, sc.coll, sc.facet, sc.facetG, sc.census, true)

		var wantFacet, handedFacet []int32
		wantN := map[events.Type]int{}
		for _, slot := range window {
			w := want[slot]
			var got particle.Particle
			r.bank.Load(int(slot), &got)
			if got != w.rec {
				t.Fatalf("%v slot %d (%v):\n kernel  %+v\n advance %+v", layout, slot, w.ev, got, w.rec)
			}
			if !sameFrame(sc.frame[slot], w.frame) {
				t.Fatalf("%v slot %d: frame %+v, recomputed %+v", layout, slot, sc.frame[slot], w.frame)
			}
			wantN[w.ev]++
			switch {
			case w.plain:
				wantFacet = append(wantFacet, slot)
			case w.ev == events.Facet:
				handedFacet = append(handedFacet, slot)
			}
		}
		if nc != wantN[events.Collision] || nf != wantN[events.Facet] || ncen != wantN[events.Census] {
			t.Fatalf("%v: buckets (coll, facet, census) = (%d, %d, %d), advance picks %v", layout, nc, nf, ncen, wantN)
		}
		// Membership, whatever the order: each bucket holds exactly the slots
		// whose event advance picks.
		for ev, bucket := range map[events.Type][]int32{events.Collision: sc.coll[:nc], events.Facet: sc.facet[:nf], events.Census: sc.census[:ncen]} {
			seen := map[int32]bool{}
			for k, slot := range bucket {
				w, ok := want[slot]
				if !ok || seen[slot] || w.ev != ev {
					t.Fatalf("%v: %v bucket entry %d is slot %d, whose event is %v (in window %t, repeated %t)", layout, ev, k, slot, w.ev, ok, seen[slot])
				}
				if ev == events.Facet && sc.facetG[k] != w.geom {
					t.Fatalf("%v: facet slot %d geometry %d, advance gives %d", layout, slot, sc.facetG[k], w.geom)
				}
				seen[slot] = true
			}
		}
		// Order: the flat path's facets in visit order, then the handed-off
		// facets in visit order.
		wantFacet = append(wantFacet, handedFacet...)
		if !slices.Equal(sc.facet[:nf], wantFacet) {
			t.Fatalf("%v: facet bucket %v, want %v", layout, sc.facet[:nf], wantFacet)
		}
		wc := before
		n := uint64(len(window))
		wc.Segments += n
		wc.DensityReads += n
		wc.OEActiveVisits += n
		wc.CensusEvents += uint64(ncen)
		wc.XSLookups += refWS.c.XSLookups
		wc.XSSearchSteps += refWS.c.XSSearchSteps
		if ws.c != wc {
			t.Fatalf("%v: counters moved\n from %+v\n to   %+v\n want %+v", layout, before, ws.c, wc)
		}
		if len(wantFacet)-len(handedFacet) < 30 || len(handedFacet) < 5 || nc < 5 || ncen < 5 {
			t.Fatalf("%v: %d flat facets, %d handed-off facets, %d collisions, %d census: the window does not mix the paths",
				layout, len(wantFacet)-len(handedFacet), len(handedFacet), nc, ncen)
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

// TestOEKernelLayouts runs the collision and facet kernels over one mixed
// window on an AoS bank and on a SoA bank that start equal, and requires the
// two to end equal: records, frames, survivor lists, tally ticks, leakage and
// counters. The window, on the leak scene (+x and +y open to vacuum), holds
// collision deaths and survivors, then facets of every kind: plain crossings,
// crossings that flush a deposit (the survivors', left by their collision,
// and a set one), reflections off the closed -x and -y edges and escapes
// through the open +x and +y ones. Both layouts run the same kernels only
// through different loops, so any field one loop writes and the other does
// not shows as a difference.
func TestOEKernelLayouts(t *testing.T) {
	type end struct {
		recs                []particle.Particle
		frames              []oeFrame
		survivors, facets   []int32
		ticks, leakW, leakE []int64
		c                   Counters
	}
	kernels := func(layout particle.Layout) end {
		cfg := leakConfig(t)
		// The step that puts histories in flight runs Over Particles, so the
		// two banks start equal whatever the kernels under test do.
		cfg.Scheme, cfg.Layout, cfg.Particles = OverParticles, layout, 1000
		sim, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		r := sim.r
		r.reviveCensus()
		r.ensureOE()
		m, ws := r.mesh, r.workers[0]
		ws.c = Counters{} // the kernels' counts alone
		var window, coll, facet []int32
		var geom []uint8
		for i := 0; i < r.bank.Len() && len(window) < 120; i++ {
			if r.bank.StatusOf(i) != particle.Alive {
				continue
			}
			var p particle.Particle
			r.bank.Load(i, &p)
			slot, n := int32(i), len(window)
			axis := n / 6 % 2 // alternate the axis of the edge cases
			p.CellX, p.CellY = int32(m.NX/2), int32(m.NY/2)
			switch n % 6 {
			case 0, 1: // a collision: death below the weight cutoff, or a survivor
				p.CachedSigmaA, p.CachedSigmaS = 1, 3
				if n%6 == 0 {
					p.Weight = r.ctx.WeightCutoff / 2
				}
				coll = append(coll, slot)
			case 2, 3: // a plain crossing, the second carrying a deposit
				if n%6 == 3 {
					p.Deposit = 1e-3 * p.Weight * p.Energy
				}
				facet, geom = append(facet, slot), append(geom, facetGeom(axis, 2*(n/12%2)-1))
			case 4: // a reflection off a closed edge
				p.CellX, p.CellY = p.CellX*int32(axis), p.CellY*int32(1-axis)
				facet, geom = append(facet, slot), append(geom, facetGeom(axis, -1))
			case 5: // an escape through an open edge, with a deposit to flush first
				if axis == 0 {
					p.CellX = int32(m.NX - 1)
				} else {
					p.CellY = int32(m.NY - 1)
				}
				p.Deposit = 1e-3 * p.Weight * p.Energy
				facet, geom = append(facet, slot), append(geom, facetGeom(axis, 1))
			}
			r.bank.Store(i, &p)
			r.oe.frame[i].setMotion(&p)
			window = append(window, slot)
		}

		next := make([]int32, len(coll))
		nk := r.collisionKernel(ws, coll, next)
		for _, slot := range next[:nk] {
			facet, geom = append(facet, slot), append(geom, facetGeom(int(slot)%2, 1))
		}
		nf := r.facetKernel(ws, facet, geom)

		e := end{survivors: next[:nk], facets: facet[:nf], c: ws.c}
		for _, slot := range window {
			var p particle.Particle
			r.bank.Load(int(slot), &p)
			e.recs = append(e.recs, p)
			e.frames = append(e.frames, r.oe.frame[slot])
		}
		e.ticks = slices.Clone(r.tly.Ticks())
		e.leakW, e.leakE = slices.Clone(r.leakWeight.Ticks()), slices.Clone(r.leakEnergy.Ticks())
		return e
	}

	aos, soa := kernels(particle.AoS), kernels(particle.SoA)
	for k := range aos.recs {
		if aos.recs[k] != soa.recs[k] {
			t.Fatalf("window entry %d record:\n AoS %+v\n SoA %+v", k, aos.recs[k], soa.recs[k])
		}
		if !sameFrame(aos.frames[k], soa.frames[k]) {
			t.Fatalf("window entry %d frame: AoS %+v, SoA %+v", k, aos.frames[k], soa.frames[k])
		}
	}
	for _, l := range []struct {
		name     string
		aos, soa []int64
	}{{"tally", aos.ticks, soa.ticks}, {"leaked weight", aos.leakW, soa.leakW}, {"leaked energy", aos.leakE, soa.leakE}} {
		if !slices.Equal(l.aos, l.soa) {
			t.Fatalf("%s ticks differ between layouts", l.name)
		}
	}
	if !slices.Equal(aos.survivors, soa.survivors) || !slices.Equal(aos.facets, soa.facets) {
		t.Fatalf("survivors AoS %v SoA %v; facet survivors AoS %v SoA %v", aos.survivors, soa.survivors, aos.facets, soa.facets)
	}
	if aos.c != soa.c {
		t.Fatalf("counters:\n AoS %+v\n SoA %+v", aos.c, soa.c)
	}
	c := aos.c
	if c.Deaths < 10 || len(aos.survivors) < 10 || c.Reflections < 10 || c.Escapes < 10 {
		t.Fatalf("the window does not mix the cases: %d deaths, %d survivors, %d reflections, %d escapes of %d facets",
			c.Deaths, len(aos.survivors), c.Reflections, c.Escapes, c.FacetEvents)
	}
}
