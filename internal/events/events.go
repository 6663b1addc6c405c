// Package events implements the particle event tracking of the neutral
// mini-app (paper §IV-A): the three event types — collision, facet
// encounter, census — their competing distance calculations, and their
// handlers.
//
// The functions here are the single source of truth for the physics. Both
// parallelisation schemes call them with identical random streams, so the
// schemes produce identical particle histories; only the order of execution
// and the memory behaviour differ — which is precisely the comparison the
// paper makes.
package events

import (
	"math"

	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/rng"
	"repro/internal/xs"
)

// Physical constants.
const (
	// EVToJoule converts electron-volts to joules.
	EVToJoule = 1.602176634e-19
	// NeutronMassKg is the neutron rest mass.
	NeutronMassKg = 1.67492749804e-27
)

// Speed returns the non-relativistic particle speed in m/s for a kinetic
// energy in eV. At the 10 MeV source energy this is ~4.4e7 m/s; relativistic
// corrections (~2.5%) are irrelevant to a performance proxy.
func Speed(energyEV float64) float64 {
	return math.Sqrt(2 * energyEV * EVToJoule / NeutronMassKg)
}

// Type enumerates the event kinds.
type Type int

const (
	// Collision: the particle interacts with a nucleus (absorb/scatter).
	Collision Type = iota
	// Facet: the particle reaches a face of its mesh cell.
	Facet
	// Census: the particle exhausts the timestep.
	Census
)

// String names the event type.
func (t Type) String() string {
	switch t {
	case Collision:
		return "collision"
	case Facet:
		return "facet"
	case Census:
		return "census"
	default:
		return "unknown"
	}
}

// Context bundles the immutable inputs of event handling.
type Context struct {
	Mesh *mesh.Mesh
	XS   xs.Pair
	// WeightCutoff terminates histories whose statistical weight has been
	// ground down by implicit capture (paper §IV-E).
	WeightCutoff float64
	// EnergyCutoff terminates histories that have slowed beneath the
	// energy of interest, in eV.
	EnergyCutoff float64
}

// DefaultWeightCutoff and DefaultEnergyCutoff are the standard termination
// thresholds: histories end once their weight falls below 2% of birth
// weight or their energy below 100 eV.
const (
	DefaultWeightCutoff = 0.02
	DefaultEnergyCutoff = 100.0
)

// MinSigmaT is the macroscopic cross section below which material is
// treated as void (no collisions): the stream problem's 1e-30 kg/m^3
// density produces SigmaT ~ 2e-30 /m, far below this.
const MinSigmaT = 1e-12

// ScatterAlpha is the elastic-scattering energy-dampening floor
// ((A-1)/(A+1))^2 for the synthetic single material.
const ScatterAlpha = 0.3

// Infinity is the distance used for impossible events.
var Infinity = math.Inf(1)

// DistanceToCollision converts remaining sampled mean free paths into a
// distance through material with total macroscopic cross section sigmaT.
func DistanceToCollision(mfpRemaining, sigmaT float64) float64 {
	if sigmaT < MinSigmaT {
		return Infinity
	}
	return mfpRemaining / sigmaT
}

// DistanceToCensus converts remaining timestep into track length.
func DistanceToCensus(timeToCensus, speed float64) float64 {
	return timeToCensus * speed
}

// AxisDistance is the canonical distance along the flight path to one facet
// plane: plane f of a family spaced pitch apart, seen from coordinate pos by a
// particle whose reciprocal direction cosine on that axis is inv —
// (f·pitch − pos)·inv. A multiply by the reciprocal replaces the divide by the
// cosine: the reciprocal changes only when the direction does, so the divide
// leaves the per-segment dependency chain. Floating point can leave a
// just-crossed facet epsilon behind the particle; the clamp means the particle
// never moves backwards, and that the distance is +0 exactly when it is zero
// (a particle on the facet would otherwise see 0·inv = −0).
//
// Every site that needs a facet distance — DistanceToFacetRecip here, the
// Over Particles facet streak in core — evaluates this one function, so they
// agree bit for bit. The conversion around the product is the spec's barrier
// against fusing it into the subtraction on FMA targets, which would make the
// result depend on what each call site's compiler pass saw.
func AxisDistance(f int, pitch, pos, inv float64) float64 {
	d := (float64(float64(f)*pitch) - pos) * inv
	if !(d > 0) {
		d = 0
	}
	return d
}

// FacetAhead and NearerFacet are the facet search for a particle moving along
// both axes, as straight-line code. Event-ordered loops visit unrelated
// particles back to back, so the three comparisons of the textbook search
// (ux > 0, uy > 0, dx ≤ dy) are coin flips to a branch predictor there; this
// form has nothing to predict. It is two inlinable pieces because one function
// holding both axes is past the compiler's inlining budget.
//
// FacetAhead is one axis: with neg = signbit(u), the plane ahead of cell c is
// c + 1 − neg (the high face when moving up) and a crossing steps the cell by
// 1 − 2·neg. It returns the AxisDistance to that plane. u must be a non-zero
// number (see Moving): a zero cosine's reciprocal is ±Inf, which this form
// would multiply.
func FacetAhead(c int32, pitch, pos, u, inv float64) (dist float64, neg int) {
	neg = int(math.Float64bits(u) >> 63)
	return AxisDistance(int(c)+1-neg, pitch, pos, inv), neg
}

// NearerFacet picks between the two axes' FacetAhead results. AxisDistance is
// never negative and never NaN, so IEEE order is the integer order of the bit
// patterns, both are below 2^63, and the sign bit of their difference is
// dy < dx — an exact tie goes to x. The selection is integer arithmetic on
// that bit.
func NearerFacet(dx, dy float64, negX, negY int) (d float64, axis, dir int) {
	axis = int((math.Float64bits(dy) - math.Float64bits(dx)) >> 63)
	return min(dx, dy), axis, 1 - 2*(negX^(negX^negY)&-axis)
}

// Moving reports whether both direction cosines are non-zero numbers — the
// precondition of FacetAhead. False for ±0 and NaN, and for a product that
// underflows to zero, which no unit vector has: a false negative only sends
// the caller to the general search.
func Moving(ux, uy float64) bool {
	return math.Abs(ux*uy) > 0
}

// DistanceToFacetRecip performs the Cartesian ray–grid intersection (paper
// §IV-C): the distance from (x, y) travelling along (ux, uy) to the nearest
// face of cell (cx, cy), given the reciprocals invUX = 1/ux and invUY = 1/uy.
// axis reports 0 for an x-facet, 1 for a y-facet; dir reports +1 or -1, the
// direction of cell transition along that axis. An exact tie goes to the
// x-facet. A zero cosine never reaches its reciprocal (±Inf): that axis
// simply has no facet ahead.
func DistanceToFacetRecip(m *mesh.Mesh, x, y, ux, uy, invUX, invUY float64, cx, cy int32) (d float64, axis, dir int) {
	if Moving(ux, uy) {
		dx, negX := FacetAhead(cx, m.DX, x, ux, invUX)
		dy, negY := FacetAhead(cy, m.DY, y, uy, invUY)
		return NearerFacet(dx, dy, negX, negY)
	}
	// Axis-aligned (or NaN) flight: at most one axis has a facet ahead.
	dx := Infinity
	dirX := 0
	switch {
	case ux > 0:
		dx = AxisDistance(int(cx)+1, m.DX, x, invUX)
		dirX = 1
	case ux < 0:
		dx = AxisDistance(int(cx), m.DX, x, invUX)
		dirX = -1
	}
	dy := Infinity
	dirY := 0
	switch {
	case uy > 0:
		dy = AxisDistance(int(cy)+1, m.DY, y, invUY)
		dirY = 1
	case uy < 0:
		dy = AxisDistance(int(cy), m.DY, y, invUY)
		dirY = -1
	}
	if dx <= dy {
		return dx, 0, dirX
	}
	return dy, 1, dirY
}

// DistanceToFacet is the one-shot form of DistanceToFacetRecip for callers
// that hold no reciprocals: it pays the two divides itself. -(1/u) == 1/(-u)
// exactly, so a caller that keeps reciprocals across reflections and one that
// recomputes them here see the same bits.
func DistanceToFacet(m *mesh.Mesh, x, y, ux, uy float64, cx, cy int32) (d float64, axis, dir int) {
	return DistanceToFacetRecip(m, x, y, ux, uy, 1/ux, 1/uy, cx, cy)
}

// FacetOutcome reports what a facet encounter did to the particle.
type FacetOutcome uint8

const (
	// FacetCrossed: the particle moved into the neighbouring cell.
	FacetCrossed FacetOutcome = iota
	// FacetReflected: the facet was a reflective domain boundary and the
	// particle's direction was mirrored back into the domain.
	FacetReflected
	// FacetEscaped: the facet was a vacuum domain boundary; the history
	// ends and its weight-energy leaks out (the caller records the
	// leakage and retires the particle).
	FacetEscaped
)

// ApplyFacet moves the particle's cell across the encountered facet, or —
// when the facet is a domain boundary — applies that edge's boundary
// condition: reflective mirrors the direction (the population-conserving
// condition the paper uses throughout, §IV-C), vacuum ends the history as
// an escape. An escape leaves the record untouched; the caller owns the
// leakage accounting and status transition. The boundary-condition lookup
// is shared by both axes; scenes that cannot leak should take
// ApplyFacetReflective instead, which stays within the inlining budget.
func ApplyFacet(m *mesh.Mesh, p *particle.Particle, axis, dir int) FacetOutcome {
	if axis == 0 {
		if next := int(p.CellX) + dir; uint(next) < uint(m.NX) {
			p.CellX = int32(next)
			return FacetCrossed
		}
	} else if next := int(p.CellY) + dir; uint(next) < uint(m.NY) {
		p.CellY = int32(next)
		return FacetCrossed
	}
	if m.EdgeBC(mesh.EdgeOf(axis, dir)) == mesh.Vacuum {
		return FacetEscaped
	}
	if axis == 0 {
		p.UX = -p.UX
	} else {
		p.UY = -p.UY
	}
	return FacetReflected
}

// ApplyFacetReflective is ApplyFacet specialised to the paper's
// all-reflective boundaries: on a mesh with no vacuum edge the
// boundary-condition lookup is dead code, and eliding it keeps the function
// inside the compiler's inlining budget, so the per-facet call vanishes in
// the hot loops exactly as it did before boundary conditions existed.
// Callers must only take this path when mesh.HasVacuum() is false; the
// scheme solvers hoist that check once per run. TestReflectiveSpecialisation
// pins it to ApplyFacet on reflective meshes.
func ApplyFacetReflective(m *mesh.Mesh, p *particle.Particle, axis, dir int) (reflected bool) {
	if axis == 0 {
		next := int(p.CellX) + dir
		if next < 0 || next >= m.NX {
			p.UX = -p.UX
			return true
		}
		p.CellX = int32(next)
		return false
	}
	next := int(p.CellY) + dir
	if next < 0 || next >= m.NY {
		p.UY = -p.UY
		return true
	}
	p.CellY = int32(next)
	return false
}

// CollisionResult reports what a collision did, for instrumentation and
// conservation audits.
type CollisionResult struct {
	// Deposited is the weight-scaled energy (weight-eV) added to the
	// particle's deposit register by this collision.
	Deposited float64
	// Died reports whether the history was terminated by the cutoffs.
	Died bool
}

// Collide handles a collision event (paper §IV-A, §IV-E): implicit capture
// reduces the particle weight by the absorption fraction, an elastic
// scatter redirects the particle and dampens its energy, and the weight and
// energy cutoffs terminate exhausted histories, depositing their remaining
// energy.
//
// Three random numbers are consumed, exactly the draws the paper lists: the
// angle of scattering, the level of energy dampening, and the new number of
// mean free paths until the next collision.
func Collide(ctx *Context, p *particle.Particle, s *rng.Stream, sigmaA, sigmaS float64) CollisionResult {
	var res CollisionResult
	sigmaT := sigmaA + sigmaS

	// Implicit capture: the absorbed share of the weight deposits its
	// energy; the history continues with reduced weight.
	absorbed := p.Weight * sigmaA / sigmaT
	res.Deposited += float64(absorbed * p.Energy)
	p.Weight -= absorbed

	// Elastic scatter: redirect and dampen. The three paper draws — angle
	// of scattering, energy dampening level, new mean-free-path budget —
	// come from consecutive counters, so they are drawn as one batch.
	wTheta, wDamp, wMFP := s.Next3()
	damp := rng.UnitOpen(wDamp)
	// E' is uniform on (alpha*E, E) with alpha = ((A-1)/(A+1))^2 = 0.3,
	// a light (helium-like) average target: strong moderation, but
	// per-collision energy steps small enough that the cached
	// cross-section bin walk stays short (paper §VI-A).
	newEnergy := float64(p.Energy * (ScatterAlpha + float64((1-ScatterAlpha)*damp)))
	res.Deposited += float64(p.Weight * (p.Energy - newEnergy))
	p.Energy = newEnergy
	p.UX, p.UY = rng.DirectionOf(wTheta)
	p.MFPToCollision = rng.MeanFreePathsOf(wMFP)

	// Cutoff termination: deposit what remains so energy is conserved.
	if p.Weight < ctx.WeightCutoff || p.Energy < ctx.EnergyCutoff {
		res.Deposited += float64(p.Weight * p.Energy)
		p.Weight = 0
		p.Status = particle.Dead
		res.Died = true
	}

	p.Deposit += res.Deposited
	return res
}
