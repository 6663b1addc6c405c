package particle

import (
	"testing"

	"repro/internal/mesh"
)

// fillRecord builds a distinguishable particle record.
func fillRecord(i int) Particle {
	return Particle{
		X: float64(i), Y: float64(i) + 0.5,
		UX: 1, UY: -1,
		Energy: 1e6 + float64(i), Weight: 0.25,
		MFPToCollision: 2, TimeToCensus: 1e-7,
		CachedSigmaA: -1, CachedSigmaS: -1,
		CellX: int32(i % 7), CellY: int32(i % 5),
		RNGCounter: uint64(i) * 3, ID: uint64(i) + 100,
		Status: Alive,
	}
}

// TestAppendBothLayouts: Append must grow either layout and preserve every
// existing record and the appended one.
func TestAppendBothLayouts(t *testing.T) {
	for _, layout := range []Layout{AoS, SoA} {
		t.Run(layout.String(), func(t *testing.T) {
			b := NewBank(layout, 3)
			for i := 0; i < 3; i++ {
				p := fillRecord(i)
				b.Store(i, &p)
			}
			for i := 3; i < 40; i++ {
				p := fillRecord(i)
				if got := b.Append(&p); got != i {
					t.Fatalf("Append returned slot %d, want %d", got, i)
				}
			}
			if b.Len() != 40 {
				t.Fatalf("Len = %d, want 40", b.Len())
			}
			var p Particle
			for i := 0; i < 40; i++ {
				b.Load(i, &p)
				if want := fillRecord(i); p != want {
					t.Fatalf("slot %d corrupted:\ngot  %+v\nwant %+v", i, p, want)
				}
			}
		})
	}
}

// TestResizeReusesCapacity: shrinking keeps the backing arrays, so a
// shrink-then-regrow cycle (ensemble Reset after a weight-window run) does
// not reallocate, and regrown slots read as blank records even when the
// array previously held data.
func TestResizeReusesCapacity(t *testing.T) {
	for _, layout := range []Layout{AoS, SoA} {
		t.Run(layout.String(), func(t *testing.T) {
			b := NewBank(layout, 8)
			for i := 0; i < 8; i++ {
				p := fillRecord(i)
				b.Store(i, &p)
			}
			b.Resize(3)
			if b.Len() != 3 {
				t.Fatalf("Len after shrink = %d, want 3", b.Len())
			}
			b.Resize(8)
			var p, zero Particle
			for i := 3; i < 8; i++ {
				b.Load(i, &p)
				if p != zero {
					t.Fatalf("regrown slot %d holds stale data: %+v", i, p)
				}
			}
			// The first three survived the cycle.
			for i := 0; i < 3; i++ {
				b.Load(i, &p)
				if want := fillRecord(i); p != want {
					t.Fatalf("slot %d lost in resize: %+v", i, p)
				}
			}
		})
	}
}

// populate fills the bank from one box of the paper's unit-weight source.
func populate(b *Bank, m *mesh.Mesh, src mesh.SourceBox, dt float64, seed, idBase uint64) {
	Births(b, m, []SourceTerm{{Box: src, Share: 1, Weight: SourceWeight, Energy: SourceEnergy}}, dt, seed, idBase, 0, b.Len())
}

// TestPopulateFamilyOffsetsIdentities: replica families must shift both the
// stored IDs and the sampled birth states, and family 0 must be the plain
// population.
func TestPopulateFamilyOffsetsIdentities(t *testing.T) {
	m, err := mesh.New(16, 16, 1, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	src := mesh.SourceBox{X0: 0.2, X1: 0.8, Y0: 0.2, Y1: 0.8}
	const n = 50
	const seed = 42

	plain := NewBank(AoS, n)
	populate(plain, m, src, 1e-7, seed, 0)
	fam0 := NewBank(AoS, n)
	populate(fam0, m, src, 1e-7, seed, 0)
	fam2 := NewBank(AoS, n)
	populate(fam2, m, src, 1e-7, seed, 2*n)

	var p0, p1, p2 Particle
	identical := 0
	for i := 0; i < n; i++ {
		plain.Load(i, &p0)
		fam0.Load(i, &p1)
		if p0 != p1 {
			t.Fatalf("family 0 differs from the plain population at slot %d", i)
		}
		fam2.Load(i, &p2)
		if p2.ID != uint64(2*n+i) {
			t.Fatalf("family 2 slot %d id %d, want %d", i, p2.ID, 2*n+i)
		}
		if p0.X == p2.X && p0.Y == p2.Y {
			identical++
		}
	}
	if identical == n {
		t.Error("family 2 reproduced family 0's birth sample; streams overlap")
	}
}
