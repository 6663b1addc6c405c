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

// MaxPopulation bounds a run's source population: 1.7× the paper's largest
// (scatter's 10⁷), an AoS bank of about 2 GB.
const MaxPopulation = 1 << 24

// Births fills slots [lo, hi): particle i (stream identity idBase+i) takes a
// term by the share split over the whole bank, draws position, direction and
// mean-free-path budget as one four-word batch, then the term's optional
// jitters. A slot depends only on its index, so disjoint ranges may be
// filled concurrently, and a population is the same across layouts, schemes
// and thread counts. Ensemble replica r passes idBase = r*particles and so
// draws from a family of streams no other replica shares (paper §IV-F).
func Births(b *Bank, m *mesh.Mesh, terms []SourceTerm, dt float64, seed, idBase uint64, lo, hi int) {
	cuts := sourceCuts(terms, b.Len())
	recs := b.Records()
	var scratch Particle
	term := 0
	for i := lo; i < hi; i++ {
		for i >= cuts[term] {
			term++
		}
		t := &terms[term]
		s := rng.NewStream(seed, idBase+uint64(i))
		wx, wy, wDir, wMFP := s.Next4()
		x, y := rng.PointInBoxOf(wx, wy, t.Box.X0, t.Box.X1, t.Box.Y0, t.Box.Y1)
		ux, uy := rng.DirectionOf(wDir)
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

		// AoS in place, SoA by one Store. Field by field: a composite
		// literal through a pointer is built on the stack and copied.
		p := &scratch
		if recs != nil {
			p = &recs[i]
		}
		p.X, p.Y, p.UX, p.UY = x, y, ux, uy
		p.Energy, p.Weight = energy, weight
		p.MFPToCollision, p.TimeToCensus, p.Deposit = rng.MeanFreePathsOf(wMFP), tcens, 0
		p.CachedSigmaA, p.CachedSigmaS = -1, -1 // not yet looked up
		p.CellX, p.CellY, p.XSIndex = int32(cx), int32(cy), 0
		p.RNGCounter, p.ID, p.Status = s.Counter(), idBase+uint64(i), Alive
		if recs == nil {
			b.Store(i, p)
		}
	}
}
