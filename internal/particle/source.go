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
//
// A pass fills two slots: both cipher batches, then each slot's samplers
// and record, so the two slots' independent work overlaps; an odd last slot
// runs the same body alone. Births returns the window's weight and
// weight-energy sums, each added from zero in slot order: SumFrom's
// arithmetic, since every birth is Alive.
func Births(b *Bank, m *mesh.Mesh, terms []SourceTerm, dt float64, seed, idBase uint64, lo, hi int) (weight, energy float64) {
	cuts := sourceCuts(terms, b.Len())
	recs := b.Records()
	var (
		s       [2]rng.Stream
		w       [2][4]uint64
		scratch Particle
	)
	term := 0
	for i := lo; i < hi; i += 2 {
		n := min(hi-i, 2)
		for k := range n {
			s[k] = rng.NewStream(seed, idBase+uint64(i+k))
			w[k][0], w[k][1], w[k][2], w[k][3] = s[k].Next4()
		}
		for k := range n {
			for i+k >= cuts[term] {
				term++
			}
			t := &terms[term]
			// AoS in place, SoA by one Store. Field by field: a composite
			// literal through a pointer is built on the stack and copied.
			p := &scratch
			if recs != nil {
				p = &recs[i+k]
			}
			p.X, p.Y = rng.PointInBoxOf(w[k][0], w[k][1], t.Box.X0, t.Box.X1, t.Box.Y0, t.Box.Y1)
			p.UX, p.UY = rng.DirectionOf(w[k][2])
			p.Energy, p.Weight, p.TimeToCensus = t.Energy, t.Weight, dt
			if t.EnergyJitter > 0 {
				p.Energy *= 1 + float64(t.EnergyJitter*(2*s[k].Uniform()-1))
			}
			if t.WeightJitter > 0 {
				p.Weight *= 1 + float64(t.WeightJitter*(2*s[k].Uniform()-1))
			}
			if t.TimeJitter > 0 {
				p.TimeToCensus = dt * (1 - float64(t.TimeJitter*s[k].Uniform()))
			}
			p.MFPToCollision, p.Deposit = rng.MeanFreePathsOf(w[k][3]), 0
			cx, cy := m.CellOf(p.X, p.Y)
			p.CellX, p.CellY, p.XSIndex = int32(cx), int32(cy), 0
			p.CachedSigmaA, p.CachedSigmaS = -1, -1 // not yet looked up
			p.RNGCounter, p.ID, p.Status = s[k].Counter(), idBase+uint64(i+k), Alive
			weight += p.Weight
			energy += float64(p.Weight * p.Energy)
			if recs == nil {
				b.Store(i+k, p)
			}
		}
	}
	return weight, energy
}
