package core

import (
	"time"

	"repro/internal/events"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/xs"
)

// oeSchedule is the schedule used by the Over Events kernels. The amount of
// work in each kernel is known before the loop, so a static schedule is
// appropriate (paper §V-B).
var oeSchedule = Schedule{Kind: ScheduleStatic}

// oeState is the Over Events compaction scratch, allocated once per run and
// reused across rounds and steps (nothing here is allocated inside the
// timestep loop). The paper's scheme re-sweeps the full particle bank in
// every kernel of every round; this solver instead keeps a persistent list
// of active slot indices and per-event gather buckets, so each kernel
// iterates exactly the particles it applies to — stream compaction in the
// sense of the event-based GPU transport codes (MC/DC; Tramm et al. 2024).
//
// All bucket builds are deterministic: the static schedule assigns each
// worker one contiguous segment of the iterated list, the worker appends
// matches in segment order into a shadow region starting at its segment
// offset (a worker can never produce more entries than its segment holds),
// and packSegments compacts the regions in worker order. A list that starts
// sorted therefore stays sorted, and the whole round structure is a pure
// function of the bank state — which is what keeps stepwise/snapshot runs
// bit-identical to uninterrupted ones.
type oeState struct {
	active []int32 // active slot indices for the current round (sorted)
	next   []int32 // next round's active list (double buffer / K2 shadow)
	coll   []int32 // collision bucket for the round
	facet  []int32 // facet bucket for the round
	facetG []uint8 // facet geometry aligned with facet: axis<<1 | (dir>0)
	census []int32 // slots that reached census this step (grows per round)

	// frame is the event frame: per bank slot, the derived state the event
	// kernel needs beside the record. See oeFrame.
	frame []oeFrame

	// Per-worker segment bookkeeping for the gather kernels.
	segLo  []int32
	nColl  []int32
	nFacet []int32
	nCens  []int32
	nKeep  []int32
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

// ensureOE sizes the compaction scratch for the current bank and worker
// count, reusing prior allocations when they fit. stepOverEvents re-checks
// at every step because weight-window splitting can grow the bank between
// steps.
func (r *run) ensureOE() {
	n, threads := r.bank.Len(), r.cfg.Threads
	if n < r.cfg.Particles {
		n = r.cfg.Particles
	}
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
	if len(sc.segLo) < threads {
		sc.segLo = make([]int32, threads)
		sc.nColl = make([]int32, threads)
		sc.nFacet = make([]int32, threads)
		sc.nCens = make([]int32, threads)
		sc.nKeep = make([]int32, threads)
	}
}

// oeWorkers caps a kernel's worker count by the work available: a tail
// round carrying a few dozen in-flight particles runs on one or two workers
// instead of paying a full fork-join for sub-chunk segments. The count is a
// pure function of the iteration length, so bucket builds stay
// deterministic.
func oeWorkers(threads, n int) int {
	const grain = 256 // minimum slots that justify another worker
	if w := (n + grain - 1) / grain; w < threads {
		threads = w
	}
	if threads < 1 {
		return 1
	}
	return threads
}

// packSegments compacts per-worker shadow regions of buf into a contiguous
// block starting at base: worker w wrote counts[w] entries at
// base+segLo[w]. Segments are in ascending offset order and each holds no
// more entries than its span, so every destination is at or before its
// source and the forward copies never clobber unread data. Returns the
// packed length.
func packSegments(buf []int32, base int, segLo, counts []int32) int {
	n := 0
	for w := range counts {
		c := int(counts[w])
		if c == 0 {
			continue
		}
		src := base + int(segLo[w])
		if dst := base + n; dst != src {
			copy(buf[dst:dst+c], buf[src:src+c])
		}
		n += c
	}
	return n
}

// stepOverEvents runs one timestep with the Over Events scheme (paper §V-B,
// Listing 2): rounds of tight kernels. Nothing is cached in registers across
// kernels — all state lives in the particle store and the event frame beside
// it — and every kernel ends in a synchronisation, exactly as in the paper.
// The deviation (DESIGN.md §9) is purely in iteration: where the paper's
// kernels each sweep the entire particle list testing a per-slot event tag,
// these kernels iterate a compacted active-index list and per-event buckets
// gathered by kernel 1, so the per-round cost is O(active particles), not
// O(bank size). Per-particle work, event order and RNG consumption are
// unchanged, which keeps the scheme bit-identical to Over Particles.
//
// Kernel order per round:
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
// facet survivors. After the last round a census kernel flushes every
// particle that reached census.
func (r *run) stepOverEvents(res *Result) {
	r.ensureOE() // the bank may have grown since the last step
	sc := r.oe
	threads := r.cfg.Threads
	bankN := uint64(r.bank.Len())

	// One status sweep builds the step's initial active set; every later
	// round compacts it in place from the event buckets.
	sc.active = r.bank.GatherStatus(sc.active[:0], particle.Alive)
	censusLen := 0

	for first := true; len(sc.active) > 0; first = false {
		// Cancellation poll: bounded by one round of kernels.
		if r.stop.Load() {
			return
		}
		n := len(sc.active)
		for w := 0; w < threads; w++ {
			sc.nColl[w], sc.nFacet[w], sc.nCens[w], sc.nKeep[w] = 0, 0, 0, 0
		}

		r.regionStart("event-kernel")
		t0 := time.Now()
		parallelFor(oeWorkers(threads, n), n, oeSchedule, func(w, lo, hi int) {
			r.eventKernel(w, lo, hi, censusLen, first)
		})
		nColl := packSegments(sc.coll, 0, sc.segLo, sc.nColl[:threads])
		nFacet := packSegments(sc.facet, 0, sc.segLo, sc.nFacet[:threads])
		packGeom(sc.facetG, sc.segLo, sc.nFacet[:threads])
		censusLen += packSegments(sc.census, censusLen, sc.segLo, sc.nCens[:threads])
		res.Phases.EventKernel += time.Since(t0)
		r.regionEnd("event-kernel")

		r.regionStart("collision-kernel")
		t0 = time.Now()
		parallelFor(oeWorkers(threads, nColl), nColl, oeSchedule, r.collisionKernel)
		nSurv := packSegments(sc.next, 0, sc.segLo, sc.nKeep[:threads])
		res.Phases.CollisionKernel += time.Since(t0)
		r.regionEnd("collision-kernel")

		// The flush time is attributed to FacetKernel; TallyKernel times the
		// census flush pass.
		r.regionStart("facet-kernel")
		t0 = time.Now()
		for w := 0; w < threads; w++ {
			sc.nKeep[w] = 0
		}
		parallelFor(oeWorkers(threads, nFacet), nFacet, oeSchedule, r.facetKernel)
		nFacet = packSegments(sc.facet, 0, sc.segLo, sc.nKeep[:threads])
		res.Phases.FacetKernel += time.Since(t0)
		r.regionEnd("facet-kernel")

		r.workers[0].c.OERounds++
		// The logical cost of the paper's naive round: four full-bank
		// kernels (see Counters.OESlotSweeps).
		r.workers[0].c.OESlotSweeps += 4 * bankN

		// Compact the active set: collision survivors then facet
		// particles, both sorted, so the list stays two ordered runs
		// and bank access stays near-sequential.
		copy(sc.next[nSurv:nSurv+nFacet], sc.facet[:nFacet])
		full := sc.next[:cap(sc.next)]
		sc.next = sc.active[:cap(sc.active)]
		sc.active = full[:nSurv+nFacet]
	}

	// Census kernel: flush everything that reached census this step. The
	// census list was gathered round by round, so this visits exactly the
	// retiring particles instead of sweeping the bank.
	r.regionStart("tally-kernel")
	t0 := time.Now()
	parallelFor(oeWorkers(threads, censusLen), censusLen, oeSchedule, func(w, lo, hi int) {
		ws := r.workers[w]
		start := time.Now()
		for k := lo; k < hi; k++ {
			r.flushSlot(ws, int(sc.census[k]))
		}
		ws.c.OEActiveVisits += uint64(hi - lo)
		ws.busy += time.Since(start)
	})
	res.Phases.TallyKernel += time.Since(t0)
	r.regionEnd("tally-kernel")
	// The naive scheme's census sweep visits the whole bank once per step.
	r.workers[0].c.OESlotSweeps += bankN
}

// eventKernel is kernel 1 over active[lo:hi]: calculate_time_to_events and
// determine_next_event, gathering the handler buckets. In the step's first
// round (fill) it first builds the chunk's event frame.
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
func (r *run) eventKernel(w, lo, hi, censusBase int, fill bool) {
	ws, sc, m := r.workers[w], r.oe, r.mesh
	start := time.Now()
	var scratch particle.Particle
	if fill {
		for _, slot := range sc.active[lo:hi] {
			p := r.bank.View(int(slot), &scratch)
			sc.frame[slot].setMotion(p)
		}
	}
	nc, nf, ncen := 0, 0, 0
	for k := lo; k < hi; k++ {
		i := int(sc.active[k])
		p := r.bank.View(i, &scratch)
		fr := &sc.frame[i]
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
			sc.facet[lo+nf] = int32(i)
			sc.facetG[lo+nf] = g
			nf++
		case events.Collision:
			sc.coll[lo+nc] = int32(i)
			nc++
		case events.Census:
			sc.census[censusBase+lo+ncen] = int32(i)
			ncen++
		}
		r.bank.CommitKinematics(i, p)
		if ev == events.Census {
			// After the commit: status is outside the kinematic field set.
			r.bank.SetStatus(i, particle.Census)
		}
	}
	sc.segLo[w] = int32(lo)
	sc.nColl[w], sc.nFacet[w], sc.nCens[w] = int32(nc), int32(nf), int32(ncen)
	visits := uint64(hi - lo)
	ws.c.Segments += visits
	ws.c.DensityReads += visits
	ws.c.OEActiveVisits += visits
	ws.c.CensusEvents += uint64(ncen)
	if ncen > 0 {
		r.done.Add(int64(ncen))
	}
	ws.busy += time.Since(start)
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

// collisionKernel is kernel 2 over coll[lo:hi]: handle_collision for every
// colliding particle. Survivors are gathered into the next-round shadow with
// their frame motion recomputed — a collision is the one mid-step change of
// energy and direction; deaths retire here.
func (r *run) collisionKernel(w, lo, hi int) {
	ws, sc := r.workers[w], r.oe
	start := time.Now()
	var p particle.Particle
	nk := 0
	for k := lo; k < hi; k++ {
		i := int(sc.coll[k])
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
			sc.frame[i].setMotion(&p)
			sc.next[lo+nk] = int32(i)
			nk++
		}
		p.SaveStream(&s)
		r.bank.Store(i, &p)
	}
	sc.segLo[w], sc.nKeep[w] = int32(lo), int32(nk)
	visits, died := uint64(hi-lo), uint64(hi-lo-nk)
	ws.c.CollisionEvents += visits
	ws.c.RNGDraws += 3 * visits
	ws.c.OEActiveVisits += visits
	ws.c.Deaths += died
	if died > 0 {
		r.done.Add(int64(died))
	}
	ws.busy += time.Since(start)
}

// facetKernel is kernels 3+4 fused over facet[lo:hi]: handle_facet — flush
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
// in place within the worker's segment (escaped slots drop out of the round
// like collision deaths do), keeping the next active list sorted.
func (r *run) facetKernel(w, lo, hi int) {
	ws, sc, m := r.workers[w], r.oe, r.mesh
	start := time.Now()
	nk, reflected := 0, uint64(0)
	for k := lo; k < hi; k++ {
		i := int(sc.facet[k])
		cx, cy, dep := r.bank.FlushDeposit(i)
		if dep != 0 {
			r.tly.Add(ws.id, m.StorageIndex(int(cx), int(cy)), dep)
		}
		g := int(sc.facetG[k])
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
			if fr := &sc.frame[i]; axis == 0 {
				fr.invUX = -fr.invUX
			} else {
				fr.invUY = -fr.invUY
			}
			reflected++
		}
		sc.facet[lo+nk] = int32(i)
		nk++
	}
	sc.segLo[w], sc.nKeep[w] = int32(lo), int32(nk)
	visits, escaped := uint64(hi-lo), uint64(hi-lo-nk)
	ws.c.FacetEvents += visits
	ws.c.TallyFlushes += visits
	ws.c.OEActiveVisits += visits
	ws.c.Reflections += reflected
	ws.c.Escapes += escaped
	if escaped > 0 {
		r.done.Add(int64(escaped))
	}
	ws.busy += time.Since(start)
}

// packGeom mirrors packSegments for the geometry bytes that ride alongside
// the facet bucket.
func packGeom(buf []uint8, segLo, counts []int32) {
	n := 0
	for w := range counts {
		c := int(counts[w])
		if c == 0 {
			continue
		}
		src := int(segLo[w])
		if n != src {
			copy(buf[n:n+c], buf[src:src+c])
		}
		n += c
	}
}
