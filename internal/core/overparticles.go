package core

import (
	"time"

	"repro/internal/events"
	"repro/internal/particle"
	"repro/internal/xs"
)

// stepOverParticles runs one timestep with the Over Particles scheme
// (paper §V-A, Listing 1): workers claim particle indices per the schedule
// and carry each particle from its current state to census, death or the
// end of the timestep in a single fused loop. Cross sections, the local
// density, the particle record and its deposit register all live in locals
// — "data is cached in registers between events" — and the only
// synchronisation is the single join at the end of the loop.
func (r *run) stepOverParticles(res *Result) {
	t0 := r.enter(PhaseFused, true)
	parallelFor(r.cfg.Threads, r.bank.Len(), r.cfg.Schedule, func(w, lo, hi int) {
		ws := r.workers[w]
		start := time.Now()
		var p particle.Particle
		for i := lo; i < hi; i++ {
			// Cancellation poll: bounded by one history, amortised
			// over the hundreds of events a history contains.
			if r.stop.Load() {
				break
			}
			if r.bank.StatusOf(i) != particle.Alive {
				continue
			}
			r.bank.Load(i, &p)
			r.history(ws, &p)
			r.bank.Store(i, &p)
		}
		ws.busy += time.Since(start)
	})
	r.leave(PhaseFused, true, t0, &res.Phases)
}

// history advances one particle until census, death or escape. The loop
// follows the paper's Listing 1: calculate time to events, then handle the
// nearest of collision, facet and census. An interior facet crossing hands
// over to streak, which keeps crossing in registers until something else is
// due.
func (r *run) history(ws *workerState, p *particle.Particle) {
	m := r.mesh
	// Hoisted: a mesh with no vacuum edge takes the reflective-only facet
	// handler, which the compiler inlines (see events.ApplyFacetReflective).
	canLeak := r.canLeak
	s := p.Stream(r.cfg.Seed)

	// Register-cached state for the whole history. The density read lands
	// on the memoised per-material number density (see artefacts.nd).
	nd := r.nd[m.Material(int(p.CellX), int(p.CellY))]
	ws.c.DensityReads++
	if p.CachedSigmaA < 0 {
		r.lookupXS(ws, p)
	}
	// The reciprocals advance multiplies by: recomputed when a collision
	// changes the direction and energy, one negated by a reflection.
	speed := events.Speed(p.Energy)
	invSpeed, invUX, invUY := 1/speed, 1/p.UX, 1/p.UY

	for {
		// Bit-identical expansion of xs.Macroscopic over the memoised
		// factor: ((sigma*B)*nd), the order the function evaluates.
		sigma := (p.CachedSigmaA + p.CachedSigmaS) * xs.BarnsToSquareMetres
		ev, axis, dir := advance(m, p, sigma*nd, speed, invSpeed, invUX, invUY)
		ws.c.Segments++

		switch ev {
		case events.Collision:
			ws.c.CollisionEvents++
			ws.c.RNGDraws += 3
			cr := events.Collide(&r.ctx, p, &s, p.CachedSigmaA, p.CachedSigmaS)
			if cr.Died {
				ws.c.Deaths++
				r.flush(ws, p)
				p.SaveStream(&s)
				return
			}
			// The energy and direction changed: refresh the
			// register-cached cross sections, speed and reciprocals.
			// Consecutive facet encounters reuse them without touching
			// the tables.
			r.lookupXS(ws, p)
			speed = events.Speed(p.Energy)
			invSpeed, invUX, invUY = 1/speed, 1/p.UX, 1/p.UY

		case events.Facet:
			ws.c.FacetEvents++
			// Flush the deposit register onto the tally mesh for
			// the cell being left — the per-facet atomic.
			r.flush(ws, p)
			var out events.FacetOutcome
			if !canLeak {
				// All-reflective mesh: the historical inlined path.
				if events.ApplyFacetReflective(m, p, axis, dir) {
					out = events.FacetReflected
				}
			} else {
				out = events.ApplyFacet(m, p, axis, dir)
			}
			switch out {
			case events.FacetCrossed:
				nd = r.nd[m.Material(int(p.CellX), int(p.CellY))]
				ws.c.DensityReads++
				nd = r.streak(ws, p, nd, sigma, invSpeed, invUX, invUY)
			case events.FacetReflected:
				ws.c.Reflections++
				// -(1/u) is 1/(-u) exactly.
				if axis == 0 {
					invUX = -invUX
				} else {
					invUY = -invUY
				}
			default:
				// Vacuum boundary: the history ends here and its
				// weight-energy leaks out through this edge.
				ws.c.Escapes++
				r.escape(ws, p, axis, dir)
				p.SaveStream(&s)
				return
			}

		case events.Census:
			ws.c.CensusEvents++
			p.Status = particle.Census
			r.flush(ws, p)
			p.SaveStream(&s)
			return
		}
	}
}

// streak continues a run of interior facet crossings with the transport
// state in registers — the paper's "data is cached in registers between
// events" (§V-A) for the event that is 99 % of csp. history calls it right
// after it has crossed a facet, so the deposit register is empty on entry and
// stays empty: nothing in here collides, and a crossing's tally flush is the
// elided add of zero (see flush).
//
// Each pass evaluates advance's expressions on locals: the two axis distances
// (events.AxisDistance), census iff ttc < d·(1/speed), collision iff
// mfp ≤ d·σt, the same converted products in the updates. If the nearest
// event is a crossing into another interior cell, the pass commits it
// — position, clocks, cell, the new cell's number density, one segment, one
// facet, one flush, one density read. Anything else — a collision, census, a
// domain edge — ends the streak with that segment untouched: the state is
// written back to p and history's advance computes the same segment again
// from the same values, so it picks the same event at the same bits. sigma is
// the microscopic total in m² ((σa+σs)·barns); nd goes in and comes back as
// the current cell's number density.
func (r *run) streak(ws *workerState, p *particle.Particle, nd, sigma, invSpeed, invUX, invUY float64) float64 {
	m := r.mesh
	x, y, ux, uy := p.X, p.Y, p.UX, p.UY
	ttc, mfp := p.TimeToCensus, p.MFPToCollision
	cx, cy := int(p.CellX), int(p.CellY)
	// Per axis: the cell step of a crossing, and the offset from the cell
	// index to the facet plane ahead (the high face when moving up).
	stepX, faceX := axisStep(ux)
	stepY, faceY := axisStep(uy)

	crossed := uint64(0)
	for {
		dx, dy := events.Infinity, events.Infinity
		if stepX != 0 {
			dx = events.AxisDistance(cx+faceX, m.DX, x, invUX)
		}
		if stepY != 0 {
			dy = events.AxisDistance(cy+faceY, m.DY, y, invUY)
		}
		d, nx, ny := dx, cx+stepX, cy
		if !(dx <= dy) {
			d, nx, ny = dy, cx, cy+stepY
		}
		if uint(nx) >= uint(m.NX) || uint(ny) >= uint(m.NY) {
			break // domain edge: reflection or escape
		}
		// The products the tests and the moves need, all formed here: with
		// the moves' computed after the tests the register allocator parks
		// d in a stack slot on the x → d → x chain.
		dt := float64(d * invSpeed)
		mx, my := float64(ux*d), float64(uy*d)
		if ttc < dt {
			break
		}
		sigmaT := sigma * nd
		collides := sigmaT >= events.MinSigmaT
		dm := float64(d * sigmaT)
		if collides && mfp <= dm {
			break
		}

		x += mx
		y += my
		ttc -= dt
		if collides {
			mfp -= dm
		}
		cx, cy = nx, ny
		nd = r.nd[m.Material(cx, cy)]
		crossed++
	}

	p.X, p.Y = x, y
	p.TimeToCensus, p.MFPToCollision = ttc, mfp
	p.CellX, p.CellY = int32(cx), int32(cy)
	ws.c.Segments += crossed
	ws.c.FacetEvents += crossed
	ws.c.TallyFlushes += crossed
	ws.c.DensityReads += crossed
	return nd
}

// axisStep maps a direction cosine to the cell step of a facet crossing along
// its axis (±1, or 0 when the particle does not move along it) and the offset
// from a cell index to the facet plane ahead of the particle.
func axisStep(u float64) (step, face int) {
	switch {
	case u > 0:
		return 1, 1
	case u < 0:
		return -1, 0
	}
	return 0, 0
}
