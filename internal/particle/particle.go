// Package particle implements the particle data store of the neutral
// mini-app in both Array-of-Structures (AoS) and Structure-of-Arrays (SoA)
// layouts.
//
// The paper (§VI-D) finds that on CPUs the intuitive AoS layout beats SoA
// for the Over Particles scheme: a particle is loaded once into registers
// and worked on for its whole history, so packing its fields into one or two
// cache lines minimises redundant memory traffic, whereas SoA touches one
// cache line per field and uses a single element from each. GPUs only use
// SoA (coalescing). Both layouts live behind the Bank type so every kernel
// runs unchanged over either.
package particle

import (
	"fmt"

	"repro/internal/rng"
)

// Status describes where a particle is in its life cycle.
type Status uint8

const (
	// Alive particles still have time left in the current timestep.
	Alive Status = iota
	// Census particles have exhausted the timestep and await the next.
	Census
	// Dead particles were terminated by the weight/energy cutoffs after
	// absorption reduced them below interest.
	Dead
	// Escaped particles left the domain through a vacuum boundary; their
	// weight-energy is accounted as leakage, not deposition.
	Escaped
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Alive:
		return "alive"
	case Census:
		return "census"
	case Dead:
		return "dead"
	case Escaped:
		return "escaped"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Particle is the register-resident working copy of one particle history.
// The Over Particles scheme keeps one of these in locals for the entire
// history; the Over Events scheme loads and stores it around every kernel.
type Particle struct {
	X, Y   float64 // position in metres
	UX, UY float64 // unit direction cosines
	Energy float64 // kinetic energy in eV
	Weight float64 // statistical weight (variance reduction, §IV-E)

	// MFPToCollision is the sampled number of mean free paths remaining
	// until the next collision. It is consumed as the particle moves
	// through material and resampled after each collision.
	MFPToCollision float64
	// TimeToCensus is the remaining time in the current timestep, in
	// seconds.
	TimeToCensus float64
	// Deposit is the particle-local energy-deposition register; it is
	// flushed into the tally mesh at every facet encounter and at census
	// (the atomic read-modify-write the paper studies).
	Deposit float64

	// CachedSigmaA and CachedSigmaS hold the microscopic cross sections
	// for the particle's current energy. They only need refreshing when
	// the energy changes, i.e. after a collision (paper §V-A). Over
	// Particles keeps them in registers for the whole history; Over
	// Events must store them per particle and stream them from memory
	// every round — one of the paper's key contrasts. A negative value
	// marks them invalid.
	CachedSigmaA, CachedSigmaS float64

	CellX, CellY int32 // containing mesh cell
	// XSIndex is the cross-section table bin of the last lookup. It once
	// seeded the cached linear walk (§VI-A); the bucket search starts from
	// the energy alone, so the solver only writes it. The snapshot format
	// carries it: remove the field at the next format bump.
	XSIndex int32

	// RNGCounter resumes the particle's counter-based random stream.
	RNGCounter uint64
	ID         uint64
	Status     Status
}

// Stream reconstructs the particle's random stream under the given seed.
func (p *Particle) Stream(seed uint64) rng.Stream {
	return rng.ResumeStream(seed, p.ID, p.RNGCounter)
}

// SaveStream persists the stream counter back into the particle.
func (p *Particle) SaveStream(s *rng.Stream) { p.RNGCounter = s.Counter() }
