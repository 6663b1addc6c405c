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
	next   []int32 // the other half of each window's active double buffer
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
	k := time.Duration(len(r.workers))
	res.Phases.EventKernel += sum.EventKernel / k
	res.Phases.CollisionKernel += sum.CollisionKernel / k
	res.Phases.FacetKernel += sum.FacetKernel / k
	res.Phases.TallyKernel += sum.TallyKernel / k
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
//     bucket (census particles retire into the census list);
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
	sc, ph := r.oe, &ws.oe.phases
	cur, nxt := sc.active[lo:hi], sc.next[lo:hi]
	coll, facet, facetG, census := sc.coll[lo:hi], sc.facet[lo:hi], sc.facetG[lo:hi], sc.census[lo:hi]
	lead := ws.id == 0 // the worker the region probe hears from
	enter := func(name string) time.Time {
		if lead {
			r.regionStart(name)
		}
		return time.Now()
	}
	leave := func(name string, t0 time.Time, d *time.Duration) {
		*d += time.Since(t0)
		if lead {
			r.regionEnd(name)
		}
	}

	start := time.Now()
	n, retired, rounds := hi-lo, 0, uint64(0)
	for ; n > 0; rounds++ {
		// Cancellation poll: bounded by one round of kernels.
		if r.stop.Load() {
			return
		}
		t0 := enter("event-kernel")
		nc, nf, ncen := r.eventKernel(ws, cur[:n], coll, facet, facetG, census[retired:], rounds == 0)
		leave("event-kernel", t0, &ph.EventKernel)
		retired += ncen

		t0 = enter("collision-kernel")
		n = r.collisionKernel(ws, coll[:nc], nxt)
		leave("collision-kernel", t0, &ph.CollisionKernel)

		// The flush time is attributed to FacetKernel; TallyKernel times the
		// census flush pass.
		t0 = enter("facet-kernel")
		nf = r.facetKernel(ws, facet[:nf], facetG)
		leave("facet-kernel", t0, &ph.FacetKernel)

		// Both runs are in the order the kernels visited them, so bank
		// access stays near-sequential.
		n += copy(nxt[n:], facet[:nf])
		cur, nxt = nxt, cur
	}

	t0 := enter("tally-kernel")
	for _, slot := range census[:retired] {
		r.flushSlot(ws, int(slot))
	}
	ws.c.OEActiveVisits += uint64(retired)
	leave("tally-kernel", t0, &ph.TallyKernel)
	ws.oe.rounds = rounds
	ws.busy += time.Since(start)
}

// eventKernel is kernel 1 over active: calculate_time_to_events and
// determine_next_event, gathering each slot into coll, facet (its geometry
// beside it in facetG) or census, whose new lengths it returns. In the window's
// first round (fill) it first builds the event frame of its slots.
//
// Consecutive iterations are unrelated particles, so anything data-dependent
// the body branches on is mispredicted about as often as it varies. The body
// is therefore flat: the facet search is straight-line code on the frame's
// reciprocals (events.FacetAhead, events.NearerFacet), and one test — is this
// anything but a plain facet segment? — guards the hand-off. When the facet
// wins, 99 % of csp, the move is committed here with advance's expressions on
// locals and the slot joins the facet bucket. A census or collision segment,
// or axis-aligned flight the straight-line search cannot take, is handed to
// advance with the record and frame untouched: it computes the same segment
// again from the same values, so it picks the same event at the same bits (the
// exit contract of the Over Particles streak). The kinematic views load the
// fields advance reads and store the fields it can modify — for SoA that
// skips the weight/deposit/RNG/id/status columns a pure mover never touches.
func (r *run) eventKernel(ws *workerState, active, coll, facet []int32, facetG []uint8, census []int32, fill bool) (nc, nf, ncen int) {
	frame, m := r.oe.frame, r.mesh
	var scratch particle.Particle
	if fill {
		for _, slot := range active {
			p := r.bank.View(int(slot), &scratch)
			frame[slot].setMotion(p)
		}
	}
	for _, slot := range active {
		i := int(slot)
		p := r.bank.View(i, &scratch)
		fr := &frame[i]
		// No register caching of the transport state across events: the
		// density is re-read from memory for every round, through the
		// cell's material into the memoised number densities (run.nd).
		// sigmaT is the bit-identical expansion of
		// xs.Macroscopic over that factor: ((sigma*B)*nd), the order the
		// function evaluates.
		nd := r.nd[m.Material(int(p.CellX), int(p.CellY))]
		sigmaA := p.CachedSigmaA
		sigmaT := (sigmaA + p.CachedSigmaS) * xs.BarnsToSquareMetres * nd

		x, y, ux, uy := p.X, p.Y, p.UX, p.UY
		dx, negX := events.FacetAhead(p.CellX, m.DX, x, ux, fr.invUX)
		dy, negY := events.FacetAhead(p.CellY, m.DY, y, uy, fr.invUY)
		d, axis, dir := events.NearerFacet(dx, dy, negX, negY)
		dt, dm := float64(d*fr.invSpeed), float64(d*sigmaT)
		collides := sigmaT >= events.MinSigmaT
		ev, g := events.Facet, facetGeom(axis, dir)
		if sigmaA < 0 || !events.Moving(ux, uy) || p.TimeToCensus < dt || collides && p.MFPToCollision <= dm {
			ev, g = r.handOff(ws, p, fr, nd)
		} else {
			p.X = x + float64(ux*d)
			p.Y = y + float64(uy*d)
			p.TimeToCensus -= dt
			if collides {
				p.MFPToCollision -= dm
			}
		}
		switch ev {
		case events.Facet:
			facet[nf] = slot
			facetG[nf] = g
			nf++
		case events.Collision:
			coll[nc] = slot
			nc++
		case events.Census:
			census[ncen] = slot
			ncen++
		}
		r.bank.CommitKinematics(i, p)
		if ev == events.Census {
			// After the commit: status is outside the kinematic field set.
			r.bank.SetStatus(i, particle.Census)
		}
	}
	visits := uint64(len(active))
	ws.c.Segments += visits
	ws.c.DensityReads += visits
	ws.c.OEActiveVisits += visits
	ws.c.CensusEvents += uint64(ncen)
	if ncen > 0 {
		r.done.Add(int64(ncen))
	}
	return nc, nf, ncen
}

// handOff is the event kernel's general path, one particle's visit as the
// kernel ran it before it had a flat path: refresh the cross sections a
// collision invalidated, then advance. It is out of line so the kernel's loop
// has one cold call site and keeps its state in registers around the hot path.
func (r *run) handOff(ws *workerState, p *particle.Particle, fr *oeFrame, nd float64) (events.Type, uint8) {
	if p.CachedSigmaA < 0 {
		r.lookupXS(ws, p)
	}
	sigmaT := (p.CachedSigmaA + p.CachedSigmaS) * xs.BarnsToSquareMetres * nd
	ev, axis, dir := advance(r.mesh, p, sigmaT, fr.speed, fr.invSpeed, fr.invUX, fr.invUY)
	return ev, facetGeom(axis, dir)
}

// facetGeom packs a facet's axis and cell step into the byte that rides
// beside the facet bucket: axis<<1 | (dir > 0).
func facetGeom(axis, dir int) uint8 { return uint8(axis<<1 | (dir+1)>>1) }

// collisionKernel is kernel 2 over coll: handle_collision for every colliding
// particle. Survivors are gathered into next, whose length it returns, with
// their frame motion recomputed — a collision is the one mid-step change of
// energy and direction; deaths retire here.
func (r *run) collisionKernel(ws *workerState, coll, next []int32) (nk int) {
	frame := r.oe.frame
	var p particle.Particle
	for _, slot := range coll {
		i := int(slot)
		r.bank.Load(i, &p)
		s := p.Stream(r.cfg.Seed)
		cr := events.Collide(&r.ctx, &p, &s, p.CachedSigmaA, p.CachedSigmaS)
		if cr.Died {
			r.flush(ws, &p)
		} else {
			// Invalidate the stored cross sections; next round's event
			// kernel re-looks them up (nothing stays in registers).
			p.CachedSigmaA = -1
			p.CachedSigmaS = -1
			frame[i].setMotion(&p)
			next[nk] = slot
			nk++
		}
		p.SaveStream(&s)
		r.bank.Store(i, &p)
	}
	visits, died := uint64(len(coll)), uint64(len(coll)-nk)
	ws.c.CollisionEvents += visits
	ws.c.RNGDraws += 3 * visits
	ws.c.OEActiveVisits += visits
	ws.c.Deaths += died
	if died > 0 {
		r.done.Add(int64(died))
	}
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
// collision deaths do); it returns how many there are.
func (r *run) facetKernel(ws *workerState, facet []int32, facetG []uint8) (nk int) {
	frame, m := r.oe.frame, r.mesh
	reflected := uint64(0)
	for k, slot := range facet {
		i := int(slot)
		cx, cy, dep := r.bank.FlushDeposit(i)
		if dep != 0 {
			r.tly.Add(ws.id, m.StorageIndex(int(cx), int(cy)), dep)
		}
		g := int(facetG[k])
		axis, dir := g>>1, 2*(g&1)-1
		nx, ny := int(cx)+dir&(axis-1), int(cy)+dir&-axis
		if uint(nx) < uint(m.NX) && uint(ny) < uint(m.NY) {
			r.bank.SetCellAxis(i, 0, int32(nx))
			r.bank.SetCellAxis(i, 1, int32(ny))
		} else if edge := mesh.EdgeOf(axis, dir); m.EdgeBC(edge) == mesh.Vacuum {
			wgt, we := r.bank.Escape(i)
			r.leakWeight.Add(ws.id, int(edge), wgt)
			r.leakEnergy.Add(ws.id, int(edge), we)
			continue // retired: not a survivor
		} else {
			r.bank.NegateUAxis(i, axis)
			if fr := &frame[i]; axis == 0 {
				fr.invUX = -fr.invUX
			} else {
				fr.invUY = -fr.invUY
			}
			reflected++
		}
		facet[nk] = slot
		nk++
	}
	visits, escaped := uint64(len(facet)), uint64(len(facet)-nk)
	ws.c.FacetEvents += visits
	ws.c.TallyFlushes += visits
	ws.c.OEActiveVisits += visits
	ws.c.Reflections += reflected
	ws.c.Escapes += escaped
	if escaped > 0 {
		r.done.Add(int64(escaped))
	}
	return nk
}
