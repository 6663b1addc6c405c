package particle

import (
	"repro/internal/mesh"
	"repro/internal/rng"
)

// SourceEnergy is the birth kinetic energy of every particle, in eV. A
// 10 MeV fast source gives the ~4.4 m of track per 1e-7 s timestep that
// reproduces the paper's "around 7000 facets ... per simulated particle" on
// the stream problem at 4000^2 resolution.
const SourceEnergy = 1.0e7

// SourceWeight is the birth statistical weight of every particle.
const SourceWeight = 1.0

// SourceTerm is one weighted birth region of a scene: the sampler-level form
// of a scene source. Share apportions the bank population across terms;
// Weight and Energy set the birth record; the jitters widen birth energy,
// weight and census time into uniform windows (a zero jitter draws nothing).
type SourceTerm struct {
	Box    mesh.SourceBox
	Share  float64
	Weight float64
	Energy float64
	// EnergyJitter e samples the birth energy from Energy·[1−e, 1+e).
	EnergyJitter float64
	// WeightJitter w samples the birth weight from Weight·[1−w, 1+w).
	WeightJitter float64
	// TimeJitter t samples the birth time-to-census from dt·(1−t, 1],
	// spreading births across the first timestep.
	TimeJitter float64
}

// Populate fills the bank with n freshly born particles sampled uniformly
// from the source box with isotropic directions. Random numbers determine
// the initial location and direction (paper §IV-F); each particle's stream
// key is its index, so populations are identical across layouts, schemes
// and thread counts.
func Populate(b *Bank, m *mesh.Mesh, src mesh.SourceBox, dt float64, seed uint64) {
	PopulateFamily(b, m, src, dt, seed, 0)
}

// PopulateFamily is Populate over a shifted identity range: particle i is
// born with stream identity idBase+i. Ensemble replica r passes
// idBase = r*particles, so every replica draws from a structurally disjoint
// family of Threefry streams under one simulation seed — no replica ever
// shares a variate with another. idBase 0 reproduces Populate exactly.
func PopulateFamily(b *Bank, m *mesh.Mesh, src mesh.SourceBox, dt float64, seed, idBase uint64) {
	PopulateSources(b, m, []SourceTerm{{
		Box: src, Share: 1, Weight: SourceWeight, Energy: SourceEnergy,
	}}, dt, seed, idBase)
}

// sourceCuts apportions n bank slots across the terms by share: term k owns
// the index range [cuts[k-1], cuts[k]). The split is a pure function of the
// shares and n — no random draws — so the apportionment is identical across
// layouts, schemes, thread counts and snapshot round-trips, and replica
// families (which share it) stay aligned source-for-source.
func sourceCuts(terms []SourceTerm, n int) []int {
	total := 0.0
	for _, t := range terms {
		total += t.Share
	}
	cuts := make([]int, len(terms))
	cum := 0.0
	for k, t := range terms {
		cum += t.Share
		cuts[k] = int(cum / total * float64(n))
	}
	cuts[len(cuts)-1] = n // exact, independent of rounding drift
	return cuts
}

// PopulateSources fills the bank from a weighted multi-source description:
// particle i (stream identity idBase+i) is assigned a term by the
// deterministic share split, then samples position, direction and
// mean-free-path budget from its own counter-based stream — the exact draws
// of the paper's single source — followed by the term's optional jitter
// draws. A single unit-weight, jitter-free term reproduces the historical
// Populate bit for bit. It returns the total birth statistical weight and
// birth weight-energy (weight-eV), the conservation-audit baselines, which
// are exact sums over the records just stored.
func PopulateSources(b *Bank, m *mesh.Mesh, terms []SourceTerm, dt float64, seed, idBase uint64) (birthWeight, birthEnergy float64) {
	cuts := sourceCuts(terms, b.Len())
	var p Particle
	term := 0
	for i := 0; i < b.Len(); i++ {
		for i >= cuts[term] {
			term++
		}
		t := &terms[term]
		s := rng.NewStream(seed, idBase+uint64(i))
		// The four fixed draws: position and direction as one batch,
		// then the mean-free-path budget.
		wx, wy, wDir := s.Next3()
		x, y := rng.PointInBoxOf(wx, wy, t.Box.X0, t.Box.X1, t.Box.Y0, t.Box.Y1)
		ux, uy := rng.DirectionOf(wDir)
		mfp := rng.MeanFreePaths(&s)
		energy := t.Energy
		if t.EnergyJitter > 0 {
			energy *= 1 + t.EnergyJitter*(2*s.Uniform()-1)
		}
		weight := t.Weight
		if t.WeightJitter > 0 {
			weight *= 1 + t.WeightJitter*(2*s.Uniform()-1)
		}
		tcens := dt
		if t.TimeJitter > 0 {
			tcens = dt * (1 - t.TimeJitter*s.Uniform())
		}
		cx, cy := m.CellOf(x, y)

		p = Particle{
			X: x, Y: y,
			UX: ux, UY: uy,
			Energy:         energy,
			Weight:         weight,
			MFPToCollision: mfp,
			TimeToCensus:   tcens,
			CachedSigmaA:   -1, // not yet looked up
			CachedSigmaS:   -1,
			CellX:          int32(cx),
			CellY:          int32(cy),
			ID:             idBase + uint64(i),
			RNGCounter:     s.Counter(),
			Status:         Alive,
		}
		b.Store(i, &p)
		birthWeight += weight
		birthEnergy += weight * energy
	}
	return birthWeight, birthEnergy
}
