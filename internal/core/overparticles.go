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
	r.regionStart("fused")
	t0 := time.Now()
	parallelFor(r.cfg.Threads, r.bank.Len(), r.cfg.Schedule, func(w, lo, hi int) {
		ws := r.workers[w]
		start := time.Now()
		var p particle.Particle
		// Histories retired in this chunk, folded into the shared
		// progress counter once at the end: the per-particle atomic
		// add was a contended cache line shared by every worker.
		retired := int64(0)
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
			retired++
		}
		if retired > 0 {
			r.done.Add(retired)
		}
		ws.busy += time.Since(start)
	})
	res.Phases.Fused += time.Since(t0)
	r.regionEnd("fused")
}

// history advances one particle until census, death or escape. The loop
// follows the paper's Listing 1: calculate time to events, then handle the
// nearest of collision, facet and census.
func (r *run) history(ws *workerState, p *particle.Particle) {
	m := r.mesh
	// Hoisted: a mesh with no vacuum edge takes the reflective-only facet
	// handler, which the compiler inlines (see events.ApplyFacetReflective).
	canLeak := r.canLeak
	s := p.Stream(r.cfg.Seed)

	// Register-cached state for the whole history. The density read lands
	// on the memoised number-density field (see run.ndCache).
	nd := r.ndCache[m.StorageIndex(int(p.CellX), int(p.CellY))]
	ws.c.DensityReads++
	if p.CachedSigmaA < 0 {
		r.lookupXS(ws, p)
	}
	speed := events.Speed(p.Energy)

	for {
		// Bit-identical expansion of xs.Macroscopic over the memoised
		// factor: ((sigma*B)*nd), the order the function evaluates.
		sigmaT := (p.CachedSigmaA + p.CachedSigmaS) * xs.BarnsToSquareMetres * nd
		ev, axis, dir := advance(m, p, sigmaT, speed)
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
			// The energy changed: refresh the register-cached
			// cross sections and speed. Consecutive facet
			// encounters reuse them without touching the tables.
			r.lookupXS(ws, p)
			speed = events.Speed(p.Energy)

		case events.Facet:
			ws.c.FacetEvents++
			// Flush the deposit register onto the tally mesh for
			// the cell being left — the per-facet atomic.
			r.flush(ws, p)
			if !canLeak {
				// All-reflective mesh: the historical inlined path.
				if events.ApplyFacetReflective(m, p, axis, dir) {
					ws.c.Reflections++
				} else {
					nd = r.ndCache[m.StorageIndex(int(p.CellX), int(p.CellY))]
					ws.c.DensityReads++
				}
			} else if out := events.ApplyFacet(m, p, axis, dir); out == events.FacetCrossed {
				nd = r.ndCache[m.StorageIndex(int(p.CellX), int(p.CellY))]
				ws.c.DensityReads++
			} else if out == events.FacetReflected {
				ws.c.Reflections++
			} else {
				// Vacuum boundary: the history ends here and its
				// weight-energy leaks out through this edge.
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
