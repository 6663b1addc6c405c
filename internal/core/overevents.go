package core

import (
	"time"

	"repro/internal/events"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/xs"
)

// oeSchedule is the schedule of the one Over Events launch per step: the
// step's active list is cut into one contiguous window per worker, known
// before the loop, so a static schedule is appropriate (paper §V-B).
var oeSchedule = Schedule{Kind: ScheduleStatic}

// oeState is the Over Events scratch, allocated once per run and reused across
// rounds and steps (nothing here is allocated inside the timestep loop). The
// paper's scheme re-sweeps the full particle bank in every kernel of every
// round; this solver instead keeps a list of active slot indices and per-event
// gather buckets, so each kernel iterates exactly the particles it applies to
// — stream compaction in the sense of the event-based GPU transport codes
// (MC/DC; Tramm et al. 2024).
//
// Every array is cut the same way: a worker owns the window [lo, hi) of the
// step's active list and the same window of every other array, and every list
// a round builds from that window — next, collision, facet + geometry, census
// — is built inside it. That is always room enough: a slot is in at most one
// of a round's lists, and the slots a window has retired to census plus the
// ones it still carries never outnumber the ones it started with. So workers
// share no scratch, and no list is ever moved between them.
type oeState struct {
	active []int32 // the step's active slot indices, as gathered (sorted)
	next   []int32 // the other half of each window's active double buffer, and eventKernel's deferred list
	coll   []int32 // collision bucket for the round
	facet  []int32 // facet bucket for the round
	facetG []uint8 // facet geometry aligned with facet: axis<<1 | (dir>0)
	census []int32 // slots that reached census this step (grows per round)

	// frame is the event frame: per bank slot, the derived state the event
	// kernel needs beside the record. See oeFrame.
	frame []oeFrame
}

// oeShare is what one worker reports from its window of a step; stepOverEvents
// reads and clears it at the join.
type oeShare struct {
	rounds uint64       // rounds until the window was empty
	phases PhaseTimings // time in each kernel
}

// oeFrame is one slot of the event frame: the part of a segment's arithmetic
// that depends only on the particle's energy and direction — a square root and
// three divides the event kernel would otherwise retire at every visit — kept
// beside the bank, indexed by slot whatever the bank layout. The kernel that
// changes an input rewrites the fields: the collision kernel calls setMotion
// for its survivors, the facet kernel negates one reciprocal on a reflection
// (-(1/u) is 1/(-u) exactly). The event kernel fills the frame for the step's
// alive set in its first round, so nothing survives a step boundary and
// whatever moves or adds slots between steps — the bank sort, weight-window
// splits, a restore — needs no invalidation. Derived state only: never
// serialised, and every value is the same expression of the same inputs the
// kernels used to evaluate in place.
//
// The cell's number density is deliberately not here. Kept in the frame and
// refreshed by the facet kernel at each crossing it is the same number of
// mesh reads on csp (99 % of visits cross), but the read is a cache miss, and
// the facet kernel has no arithmetic to hide it behind where the event kernel
// does: measured on csp_oe, 55 against 59 M events/s (DESIGN.md §18).
type oeFrame struct {
	speed, invSpeed float64 // events.Speed(Energy) and its reciprocal
	invUX, invUY    float64 // 1/UX, 1/UY
}

func (f *oeFrame) setMotion(p *particle.Particle) {
	f.speed = events.Speed(p.Energy)
	f.invSpeed, f.invUX, f.invUY = 1/f.speed, 1/p.UX, 1/p.UY
}

// ensureOE sizes the scratch for the current bank, reusing prior allocations
// when they fit. stepOverEvents re-checks at every step because weight-window
// splitting can grow the bank between steps.
func (r *run) ensureOE() {
	n := max(r.bank.Len(), r.cfg.Particles)
	if r.oe == nil {
		r.oe = &oeState{}
	}
	sc := r.oe
	if cap(sc.active) < n {
		sc.active = make([]int32, 0, n)
		sc.next = make([]int32, n)
		sc.coll = make([]int32, n)
		sc.facet = make([]int32, n)
		sc.facetG = make([]uint8, n)
		sc.census = make([]int32, n)
		sc.frame = make([]oeFrame, n)
	}
}

// stepOverEvents runs one timestep with the Over Events scheme (paper §V-B,
// Listing 2): rounds of tight kernels. Nothing is cached in registers across
// kernels — all state lives in the particle store and the event frame beside
// it. Two things differ from the paper, neither in the physics (DESIGN.md §9).
// Where its kernels each sweep the entire particle list testing a per-slot
// event tag, these iterate an active-index list and per-event buckets gathered
// by kernel 1, so a round costs O(active particles), not O(bank size). And
// where it synchronises every thread after every kernel, here a step is one
// launch: each worker takes one window of the step's active list and runs the
// rounds of that window to the end (oeWindow), as the event-queue codes keep a
// particle's events on the unit that owns it. A history never reads another
// history's state and deposits commute (the fixed-point tally and leakage), so
// no result depends on which worker visited a slot or when: per-particle work,
// event order and RNG consumption are those of Over Particles, bit for bit.
//
// What the join makes of the workers' reports is the same at every thread
// count. A step has as many rounds as its longest history, so OERounds is the
// maximum of the workers' round counts, and OESlotSweeps prices the paper's
// naive scheme from it: four full-bank kernels a round and one census sweep
// (see Counters.OESlotSweeps). A kernel's PhaseTimings entry is the mean over
// workers of the time they spent in it.
func (r *run) stepOverEvents(res *Result) {
	r.ensureOE() // the bank may have grown since the last step
	sc := r.oe
	// The step's one status sweep, then its one launch.
	sc.active = r.bank.GatherStatus(sc.active[:0], particle.Alive)
	parallelFor(r.cfg.Threads, len(sc.active), oeSchedule, func(w, lo, hi int) {
		r.oeWindow(r.workers[w], lo, hi)
	})

	var rounds uint64
	var sum PhaseTimings
	for _, ws := range r.workers {
		rounds = max(rounds, ws.oe.rounds)
		sum = sum.Add(ws.oe.phases)
		ws.oe = oeShare{}
	}
	for ph, d := range sum {
		res.Phases[ph] += d / time.Duration(len(r.workers))
	}
	c := &r.workers[0].c
	c.OERounds += rounds
	c.OESlotSweeps += (4*rounds + 1) * uint64(r.bank.Len())
}

// oeWindow is one worker's share of a step: rounds of the three kernels over
// its window [lo, hi) of the active list until every slot in it has retired,
// then the census flush. Kernel order per round:
//
//  1. event kernel: compute times to events, pick the nearest, move the
//     particle; gathers each particle's index into the collision or facet
//     bucket (census particles retire into the census list), the facets it
//     handed off after the plain ones, which it keeps on nxt meanwhile (free
//     until the collision kernel writes it);
//  2. collision kernel: handle all colliding particles (its bucket);
//  3. facet kernel (fusing the paper's kernels 3 and 4): flush each
//     facet-encountering particle's deposit into the cell it is leaving
//     (the separate tally loop of §VI-G — a vectorisation workaround a
//     scalar backend does not need), then cross the facet, reflect or escape.
//
// The next round's active list is the collision survivors followed by the
// facet survivors. After the last round the census kernel flushes the slots
// the window retired to census, visiting exactly those instead of sweeping the
// bank. Worker 0 alone reports its kernels to the region probe, so the
// callbacks stay paired and never nested at any thread count.
func (r *run) oeWindow(ws *workerState, lo, hi int) {
	sc, acc := r.oe, &ws.oe.phases
	cur, nxt := sc.active[lo:hi], sc.next[lo:hi]
	coll, facet, facetG, census := sc.coll[lo:hi], sc.facet[lo:hi], sc.facetG[lo:hi], sc.census[lo:hi]
	lead := ws.id == 0 // the worker the region probe hears from

	start := time.Now()
	n, retired, rounds := hi-lo, 0, uint64(0)
	for ; n > 0; rounds++ {
		// Cancellation poll: bounded by one round of kernels.
		if r.stop.Load() {
			return
		}
		t0 := r.enter(PhaseEventKernel, lead)
		nc, nf, ncen := r.eventKernel(ws, cur[:n], nxt, coll, facet, facetG, census[retired:], rounds == 0)
		r.leave(PhaseEventKernel, lead, t0, acc)
		retired += ncen

		t0 = r.enter(PhaseCollisionKernel, lead)
		n = r.collisionKernel(ws, coll[:nc], nxt)
		r.leave(PhaseCollisionKernel, lead, t0, acc)

		// The flush time is attributed to the facet kernel; the tally kernel
		// times the census flush pass.
		t0 = r.enter(PhaseFacetKernel, lead)
		nf = r.facetKernel(ws, facet[:nf], facetG)
		r.leave(PhaseFacetKernel, lead, t0, acc)

		// Both runs are in the order the kernels visited them, so bank
		// access stays near-sequential.
		n += copy(nxt[n:], facet[:nf])
		cur, nxt = nxt, cur
	}

	t0 := r.enter(PhaseTallyKernel, lead)
	if recs := r.bank.Records(); recs != nil {
		for _, slot := range census[:retired] {
			r.flush(ws, &recs[slot])
		}
	} else {
		c, _ := r.bank.Columns()
		for _, slot := range census[:retired] {
			if dep := c.Deposit[slot]; dep != 0 {
				c.Deposit[slot] = 0
				r.tly.Add(ws.id, r.mesh.StorageIndex(int(c.CellX[slot]), int(c.CellY[slot])), dep)
			}
		}
		ws.c.TallyFlushes += uint64(retired)
	}
	ws.c.OEActiveVisits += uint64(retired)
	r.leave(PhaseTallyKernel, lead, t0, acc)
	ws.oe.rounds = rounds
	ws.busy += time.Since(start)
}

// eventKernel is kernel 1 over active: calculate_time_to_events and
// determine_next_event, gathering each slot into coll, facet (its geometry
// beside it in facetG) or census, whose new lengths it returns. In the window's
// first round (fill) it first builds the event frame of its slots. deferred,
// as long as active, is scratch the kernel is done with when it returns.
//
// Consecutive iterations are unrelated particles, so anything data-dependent
// the body branches on is mispredicted about as often as it varies. The body
// is therefore flat: the facet search is straight-line code on the frame's
// reciprocals (events.FacetAhead, events.NearerFacet), and one question — is
// this a plain facet segment? — sorts the visit. If so, 99 % of csp, the move
// is committed here with advance's expressions on locals and the slot joins
// the facet bucket. Any other visit — cross sections a collision invalidated
// (asked first, before the mesh read: nearly every visit of a collision-bound
// problem), a census or collision segment, or axis-aligned flight the
// straight-line search cannot take — is handed to advance (handOff) with the
// record and frame untouched: it computes the same segment again from the same
// values, so it picks the same event at the same bits (the exit contract of the
// Over Particles streak). A facet it hands off is filed after the plain ones.
//
// The visit loop reads and writes the bank's storage in place — the records
// on AoS, the columns on SoA — and calls nothing: it only notes a hand-off's
// slot on deferred, and a second pass hands those off in visit order. Go's ABI
// keeps no register across a call, so one call site in the loop would put its
// state through the stack on every visit. On SoA the hand-off works on a copy
// of the twelve columns advance reads and stores back the seven it can modify;
// the weight/deposit/RNG/id/status columns a mover never touches stay put.
func (r *run) eventKernel(ws *workerState, active, deferred, coll, facet []int32, facetG []uint8, census []int32, fill bool) (nc, nf, ncen int) {
	frame, m, nd := r.oe.frame, r.mesh, &r.nd
	recs := r.bank.Records()
	c, _ := r.bank.Columns() // the slice headers in locals, not reloaded after each store
	// No register caching of the transport state across events: the density
	// is re-read from memory for every round, through the cell's material
	// into the memoised number densities (artefacts.nd). sigmaT is the
	// bit-identical expansion of xs.Macroscopic over that factor:
	// ((sigma*B)*nd), the order the function evaluates. The two loops are one
	// body but for how a field is reached.
	nDef := 0
	if recs != nil {
		frame := frame[:len(recs)] // one length: recs[slot]'s bounds check covers frame[slot]
		if fill {
			for _, slot := range active {
				frame[slot].setMotion(&recs[slot])
			}
		}
		for _, slot := range active {
			p, fr := &recs[slot], &frame[slot]
			if p.CachedSigmaA >= 0 {
				sigmaT := (p.CachedSigmaA + p.CachedSigmaS) * xs.BarnsToSquareMetres * nd[m.Material(int(p.CellX), int(p.CellY))]
				x, y, ux, uy := p.X, p.Y, p.UX, p.UY
				dx, negX := events.FacetAhead(p.CellX, m.DX, x, ux, fr.invUX)
				dy, negY := events.FacetAhead(p.CellY, m.DY, y, uy, fr.invUY)
				d, axis, dir := events.NearerFacet(dx, dy, negX, negY)
				dt, dm := float64(d*fr.invSpeed), float64(d*sigmaT)
				collides := sigmaT >= events.MinSigmaT
				if events.Moving(ux, uy) && !(p.TimeToCensus < dt) && !(collides && p.MFPToCollision <= dm) {
					p.X = x + float64(ux*d)
					p.Y = y + float64(uy*d)
					p.TimeToCensus -= dt
					if collides {
						p.MFPToCollision -= dm
					}
					facet[nf] = slot
					facetG[nf] = facetGeom(axis, dir)
					nf++
					continue
				}
			}
			deferred[nDef] = slot
			nDef++
		}
	} else {
		if fill {
			var p particle.Particle
			for _, slot := range active {
				p.Energy, p.UX, p.UY = c.Energy[slot], c.UX[slot], c.UY[slot]
				frame[slot].setMotion(&p)
			}
		}
		for _, slot := range active {
			fr := &frame[slot]
			if sigmaA := c.CachedSigmaA[slot]; sigmaA >= 0 {
				cx, cy := c.CellX[slot], c.CellY[slot]
				sigmaT := (sigmaA + c.CachedSigmaS[slot]) * xs.BarnsToSquareMetres * nd[m.Material(int(cx), int(cy))]
				x, y, ux, uy := c.X[slot], c.Y[slot], c.UX[slot], c.UY[slot]
				dx, negX := events.FacetAhead(cx, m.DX, x, ux, fr.invUX)
				dy, negY := events.FacetAhead(cy, m.DY, y, uy, fr.invUY)
				d, axis, dir := events.NearerFacet(dx, dy, negX, negY)
				dt, dm := float64(d*fr.invSpeed), float64(d*sigmaT)
				collides := sigmaT >= events.MinSigmaT
				if ttc, mfp := c.TimeToCensus[slot], c.MFPToCollision[slot]; events.Moving(ux, uy) && !(ttc < dt) && !(collides && mfp <= dm) {
					c.X[slot] = x + float64(ux*d)
					c.Y[slot] = y + float64(uy*d)
					c.TimeToCensus[slot] = ttc - dt
					if collides {
						c.MFPToCollision[slot] = mfp - dm
					}
					facet[nf] = slot
					facetG[nf] = facetGeom(axis, dir)
					nf++
					continue
				}
			}
			deferred[nDef] = slot
			nDef++
		}
	}
	// The hand-offs, in visit order: on the record, or on a kinematic copy
	// of the columns.
	var scratch particle.Particle
	for _, slot := range deferred[:nDef] {
		p := &scratch
		if recs != nil {
			p = &recs[slot]
		} else {
			c.LoadKinematics(int(slot), p)
		}
		ev, g := r.handOff(ws, p, &frame[slot])
		if recs == nil {
			c.StoreKinematics(int(slot), p)
		}
		switch ev {
		case events.Facet:
			facet[nf], facetG[nf] = slot, g
			nf++
		case events.Collision:
			coll[nc] = slot
			nc++
		case events.Census:
			census[ncen] = slot
			ncen++
			r.bank.SetStatus(int(slot), particle.Census)
		}
	}
	visits := uint64(len(active))
	ws.c.Segments += visits
	ws.c.DensityReads += visits
	ws.c.OEActiveVisits += visits
	ws.c.CensusEvents += uint64(ncen)
	return nc, nf, ncen
}

// handOff is the event kernel's general path, one particle's visit as the
// kernel ran it before it had a flat path: refresh the cross sections a
// collision invalidated, then advance. It reads the cell's number density
// itself; the kernel counts one read per visit either way.
func (r *run) handOff(ws *workerState, p *particle.Particle, fr *oeFrame) (events.Type, uint8) {
	if p.CachedSigmaA < 0 {
		r.lookupXS(ws, p)
	}
	nd := r.nd[r.mesh.Material(int(p.CellX), int(p.CellY))]
	sigmaT := (p.CachedSigmaA + p.CachedSigmaS) * xs.BarnsToSquareMetres * nd
	ev, axis, dir := advance(r.mesh, p, sigmaT, fr.speed, fr.invSpeed, fr.invUX, fr.invUY)
	return ev, facetGeom(axis, dir)
}

// facetGeom packs a facet's axis and cell step into the byte that rides
// beside the facet bucket: axis<<1 | (dir > 0).
func facetGeom(axis, dir int) uint8 { return uint8(axis<<1 | (dir>>1 + 1)) }

// collisionKernel is kernel 2 over coll: handle_collision for every colliding
// particle. Survivors are gathered into next, whose length it returns, with
// their frame motion recomputed — a collision is the one mid-step change of
// energy and direction; deaths retire here. Collide works on the record on
// AoS, and on a Load/Store copy on SoA: it reads and writes most fields.
func (r *run) collisionKernel(ws *workerState, coll, next []int32) (nk int) {
	frame, recs := r.oe.frame, r.bank.Records()
	var scratch particle.Particle
	for _, slot := range coll {
		i, p := int(slot), &scratch
		if recs != nil {
			p = &recs[i]
		} else {
			r.bank.Load(i, p)
		}
		s := p.Stream(r.cfg.Seed)
		cr := events.Collide(&r.ctx, p, &s, p.CachedSigmaA, p.CachedSigmaS)
		if cr.Died {
			r.flush(ws, p)
		} else {
			// Invalidate the stored cross sections; next round's event
			// kernel re-looks them up (nothing stays in registers).
			p.CachedSigmaA = -1
			p.CachedSigmaS = -1
			frame[i].setMotion(p)
			next[nk] = slot
			nk++
		}
		p.SaveStream(&s)
		if recs == nil {
			r.bank.Store(i, p)
		}
	}
	visits, died := uint64(len(coll)), uint64(len(coll)-nk)
	ws.c.CollisionEvents += visits
	ws.c.RNGDraws += 3 * visits
	ws.c.OEActiveVisits += visits
	ws.c.Deaths += died
	return nk
}

// facetKernel is kernels 3+4 fused over facet: handle_facet — flush
// the deposit register into the cell being left (the paper's separate tally
// loop, §VI-G), then cross into the neighbour cell, reflect at a reflective
// boundary, or escape through a vacuum one. The paper splits these into two
// kernels only because OpenMP's vectoriser could not digest the atomic inside
// the facet kernel; a scalar Go backend gains nothing from the split, and
// fusing removes a second full pass over the facet bucket. Per-particle order
// is unchanged (flush, then move), so the fusion is invisible to the physics.
//
// Like the event kernel the body does not branch on its data: the neighbour
// cell is cell + dir along the facet's axis computed for both axes, and the
// one branch — the neighbour is outside the domain — is rare and is the only
// place the scene's boundary conditions are consulted. Survivors are compacted
// in place to the front of facet (escaped slots drop out of the round like
// collision deaths do); it returns how many there are. As in the event
// kernel, the loop works on the records or the columns in place.
func (r *run) facetKernel(ws *workerState, facet []int32, facetG []uint8) (nk int) {
	frame, m := r.oe.frame, r.mesh
	reflected := uint64(0)
	if recs := r.bank.Records(); recs != nil {
		frame := frame[:len(recs)] // one length, as in eventKernel
		for k, slot := range facet {
			p := &recs[slot]
			if dep := p.Deposit; dep != 0 {
				p.Deposit = 0
				r.tly.Add(ws.id, m.StorageIndex(int(p.CellX), int(p.CellY)), dep)
			}
			g := int(facetG[k])
			axis, dir := g>>1, 2*(g&1)-1
			nx, ny := int(p.CellX)+dir&(axis-1), int(p.CellY)+dir&-axis
			switch fr := &frame[slot]; {
			case uint(nx) < uint(m.NX) && uint(ny) < uint(m.NY):
				p.CellX, p.CellY = int32(nx), int32(ny)
			case m.EdgeBC(mesh.EdgeOf(axis, dir)) == mesh.Vacuum:
				r.escape(ws, p, axis, dir)
				continue // retired: not a survivor
			case axis == 0:
				p.UX, fr.invUX = -p.UX, -fr.invUX
				reflected++
			default:
				p.UY, fr.invUY = -p.UY, -fr.invUY
				reflected++
			}
			facet[nk] = slot
			nk++
		}
	} else {
		c, _ := r.bank.Columns()
		for k, slot := range facet {
			cx, cy := c.CellX[slot], c.CellY[slot]
			if dep := c.Deposit[slot]; dep != 0 {
				c.Deposit[slot] = 0
				r.tly.Add(ws.id, m.StorageIndex(int(cx), int(cy)), dep)
			}
			g := int(facetG[k])
			axis, dir := g>>1, 2*(g&1)-1
			nx, ny := int(cx)+dir&(axis-1), int(cy)+dir&-axis
			switch fr := &frame[slot]; {
			case uint(nx) < uint(m.NX) && uint(ny) < uint(m.NY):
				c.CellX[slot], c.CellY[slot] = int32(nx), int32(ny)
			case m.EdgeBC(mesh.EdgeOf(axis, dir)) == mesh.Vacuum:
				p := particle.Particle{Weight: c.Weight[slot], Energy: c.Energy[slot]}
				r.escape(ws, &p, axis, dir)
				c.Weight[slot], c.Status[slot] = p.Weight, p.Status
				continue // retired: not a survivor
			case axis == 0:
				c.UX[slot], fr.invUX = -c.UX[slot], -fr.invUX
				reflected++
			default:
				c.UY[slot], fr.invUY = -c.UY[slot], -fr.invUY
				reflected++
			}
			facet[nk] = slot
			nk++
		}
	}
	visits, escaped := uint64(len(facet)), uint64(len(facet)-nk)
	ws.c.FacetEvents += visits
	ws.c.TallyFlushes += visits
	ws.c.OEActiveVisits += visits
	ws.c.Reflections += reflected
	ws.c.Escapes += escaped
	return nk
}
