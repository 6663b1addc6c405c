package particle

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mesh"
	"repro/internal/rng"
)

// birthRef is one birth drawn alone, slot by slot, as a slot is defined:
// the reference Births' two-slot passes must equal bit for bit.
func birthRef(m *mesh.Mesh, terms []SourceTerm, cuts []int, dt float64, seed, idBase uint64, i int) Particle {
	term := 0
	for i >= cuts[term] {
		term++
	}
	t := &terms[term]
	s := rng.NewStream(seed, idBase+uint64(i))
	wx, wy, wDir, wMFP := s.Next4()
	p := Particle{Energy: t.Energy, Weight: t.Weight, TimeToCensus: dt, CachedSigmaA: -1, CachedSigmaS: -1}
	p.X, p.Y = rng.PointInBoxOf(wx, wy, t.Box.X0, t.Box.X1, t.Box.Y0, t.Box.Y1)
	p.UX, p.UY = rng.DirectionOf(wDir)
	if t.EnergyJitter > 0 {
		p.Energy *= 1 + float64(t.EnergyJitter*(2*s.Uniform()-1))
	}
	if t.WeightJitter > 0 {
		p.Weight *= 1 + float64(t.WeightJitter*(2*s.Uniform()-1))
	}
	if t.TimeJitter > 0 {
		p.TimeToCensus = dt * (1 - float64(t.TimeJitter*s.Uniform()))
	}
	p.MFPToCollision = rng.MeanFreePathsOf(wMFP)
	cx, cy := m.CellOf(p.X, p.Y)
	p.CellX, p.CellY = int32(cx), int32(cy)
	p.RNGCounter, p.ID, p.Status = s.Counter(), idBase+uint64(i), Alive
	return p
}

// bitsEqual compares two records field by field, floats by their bits.
func bitsEqual(a, b Particle) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for f := range va.NumField() {
		x, y := va.Field(f), vb.Field(f)
		if x.Kind() == reflect.Float64 {
			if math.Float64bits(x.Float()) != math.Float64bits(y.Float()) {
				return false
			}
		} else if x.Interface() != y.Interface() {
			return false
		}
	}
	return true
}

// TestBirthPairsMatchSingles: Births over every window [lo, hi) of a bank,
// odd and even bounds alike, writes each slot of the window as birthRef
// draws it alone and no slot outside it, on both layouts, with idBase ≠ 0,
// for a jittered term beside a plain one whose cut falls at an odd and at an
// even slot. The sums it returns are SumFrom's over the window: every slot
// outside it holds a dead, weightless stale record, which adds +0 to the
// weight and nothing to the energy.
func TestBirthPairsMatchSingles(t *testing.T) {
	m, err := mesh.New(64, 64, mesh.Extent, mesh.Extent, mesh.VacuumDensity)
	if err != nil {
		t.Fatal(err)
	}
	plain := SourceTerm{Box: mesh.SourceBox{X0: 0.2, X1: 0.7, Y0: 0.2, Y1: 0.7}, Weight: 1, Energy: SourceEnergy}
	jittered := SourceTerm{Box: mesh.SourceBox{X0: 1.8, X1: 2.3, Y0: 1.8, Y1: 2.3}, Weight: 0.25, Energy: 5e6,
		EnergyJitter: 0.1, WeightJitter: 0.2, TimeJitter: 0.8}
	const n, dt, seed, idBase = 25, 1e-7, 91, 7 * 25
	cutParity := map[int]bool{}
	for _, shares := range [][2]float64{{12, 13}, {13, 12}} {
		a, b := plain, jittered
		a.Share, b.Share = shares[0], shares[1]
		terms := []SourceTerm{a, b}
		cuts := sourceCuts(terms, n)
		cutParity[cuts[0]%2] = true
		want := make([]Particle, n)
		for i := range want {
			want[i] = birthRef(m, terms, cuts, dt, seed, idBase, i)
		}
		for _, layout := range []Layout{AoS, SoA} {
			for lo := 0; lo <= n; lo++ {
				for hi := lo; hi <= n; hi++ {
					b := NewBank(layout, n)
					for i := range n {
						stale := fillRecord(i)
						stale.Weight, stale.Status, stale.Deposit, stale.XSIndex = 0, Dead, 42, 7
						b.Store(i, &stale)
					}
					gotW, gotE := Births(b, m, terms, dt, seed, idBase, lo, hi)
					var p Particle
					for i := range n {
						b.Load(i, &p)
						if lo <= i && i < hi && !bitsEqual(p, want[i]) {
							t.Fatalf("%v cut %d [%d, %d): slot %d\n got %+v\nwant %+v", layout, cuts[0], lo, hi, i, p, want[i])
						}
						if (i < lo || i >= hi) && p.Status != Dead {
							t.Fatalf("%v cut %d [%d, %d): slot %d outside the window was written", layout, cuts[0], lo, hi, i)
						}
					}
					var refW, refE float64
					for _, q := range want[lo:hi] {
						refW += q.Weight
						refE += float64(q.Weight * q.Energy)
					}
					sumW, sumE := b.SumFrom(lo, 0, 0)
					if gotW != sumW || gotE != sumE || gotW != refW || gotE != refE {
						t.Fatalf("%v cut %d [%d, %d): Births sums %v, %v; SumFrom %v, %v; slot order %v, %v",
							layout, cuts[0], lo, hi, gotW, gotE, sumW, sumE, refW, refE)
					}
				}
			}
		}
	}
	if !cutParity[0] || !cutParity[1] {
		t.Fatalf("the term cuts fall only at slots of parity %v", cutParity)
	}
}
