package particle

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mesh"
)

func TestLayoutRoundTrip(t *testing.T) {
	for _, layout := range []Layout{AoS, SoA} {
		b := NewBank(layout, 8)
		want := Particle{
			X: 1.5, Y: 2.5, UX: 0.6, UY: 0.8,
			Energy: 1e6, Weight: 0.75,
			MFPToCollision: 1.25, TimeToCensus: 3e-8, Deposit: 42,
			CellX: 7, CellY: 9, XSIndex: 123,
			RNGCounter: 999, ID: 5, Status: Census,
		}
		b.Store(3, &want)
		var got Particle
		b.Load(3, &got)
		if got != want {
			t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", layout, got, want)
		}
		// Other slots untouched.
		b.Load(2, &got)
		if got != (Particle{}) {
			t.Errorf("%v: neighbouring slot contaminated: %+v", layout, got)
		}
	}
}

// TestLayoutsEquivalent stores random particles into both layouts and
// verifies identical read-back: the layout is purely a memory-behaviour
// choice and must never change results.
func TestLayoutsEquivalent(t *testing.T) {
	f := func(x, y, e, w float64, cx, cy int32, id, ctr uint64, st uint8) bool {
		p := Particle{
			X: x, Y: y, UX: 1, UY: 0, Energy: math.Abs(e), Weight: math.Abs(w),
			CellX: cx, CellY: cy, ID: id, RNGCounter: ctr, Status: Status(st % 3),
		}
		a := NewBank(AoS, 4)
		s := NewBank(SoA, 4)
		a.Store(1, &p)
		s.Store(1, &p)
		var pa, ps Particle
		a.Load(1, &pa)
		s.Load(1, &ps)
		return pa == ps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusFastPath(t *testing.T) {
	for _, layout := range []Layout{AoS, SoA} {
		b := NewBank(layout, 4)
		b.SetStatus(2, Dead)
		if b.StatusOf(2) != Dead || b.StatusOf(1) != Alive {
			t.Errorf("%v: status fast path broken", layout)
		}
		var p Particle
		b.Load(2, &p)
		if p.Status != Dead {
			t.Errorf("%v: SetStatus not visible through Load", layout)
		}
	}
}

func TestCountStatus(t *testing.T) {
	b := NewBank(SoA, 10)
	for i := 0; i < 10; i++ {
		switch {
		case i < 5:
			b.SetStatus(i, Alive)
		case i < 8:
			b.SetStatus(i, Census)
		default:
			b.SetStatus(i, Dead)
		}
	}
	alive, census, dead := b.CountStatus()
	if alive != 5 || census != 3 || dead != 2 {
		t.Fatalf("CountStatus = %d,%d,%d want 5,3,2", alive, census, dead)
	}
}

func TestPopulateDeterministicAcrossLayouts(t *testing.T) {
	m, err := mesh.New(64, 64, mesh.Extent, mesh.Extent, mesh.VacuumDensity)
	if err != nil {
		t.Fatal(err)
	}
	src := mesh.SourceBox{X0: 0, X1: mesh.Extent / 10, Y0: 0, Y1: mesh.Extent / 10}
	const n = 500
	a := NewBank(AoS, n)
	s := NewBank(SoA, n)
	populate(a, m, src, 1e-7, 42, 0)
	populate(s, m, src, 1e-7, 42, 0)
	var pa, ps Particle
	for i := 0; i < n; i++ {
		a.Load(i, &pa)
		s.Load(i, &ps)
		if pa != ps {
			t.Fatalf("particle %d differs across layouts:\n%+v\n%+v", i, pa, ps)
		}
	}
}

// TestBirthsAnySplitMatchesPopulate: Births over any split of [0, n) into
// ranges, in any order, followed by TotalWeight and TotalEnergy, gives
// PopulateSources's bank and audit baselines bit for bit — the contract a
// parallel fill rests on — for both layouts, on two jittered terms whose cut
// falls inside ranges.
func TestBirthsAnySplitMatchesPopulate(t *testing.T) {
	m, err := mesh.New(64, 64, mesh.Extent, mesh.Extent, mesh.VacuumDensity)
	if err != nil {
		t.Fatal(err)
	}
	terms := []SourceTerm{
		{Box: mesh.SourceBox{X0: 0.2, X1: 0.7, Y0: 0.2, Y1: 0.7}, Share: 2, Weight: 1.5, Energy: SourceEnergy, EnergyJitter: 0.3},
		{Box: mesh.SourceBox{X0: 1.8, X1: 2.3, Y0: 1.8, Y1: 2.3}, Share: 1, Weight: 0.25, Energy: 5e6,
			EnergyJitter: 0.1, WeightJitter: 0.2, TimeJitter: 0.8},
	}
	const n, seed, idBase = 301, 77, 5 * 301
	for _, layout := range []Layout{AoS, SoA} {
		want := NewBank(layout, n)
		wantW, wantE := PopulateSources(want, m, terms, 1e-7, seed, idBase)
		f := func(cuts []uint16, reverse bool) bool {
			// cuts become sorted split points in [0, n]; the ranges between
			// them are filled in either order.
			bounds := []int{0, n}
			for _, c := range cuts {
				bounds = append(bounds, int(c)%(n+1))
			}
			slices.Sort(bounds)
			got := NewBank(layout, n)
			for k := range len(bounds) - 1 {
				if reverse {
					k = len(bounds) - 2 - k
				}
				Births(got, m, terms, 1e-7, seed, idBase, bounds[k], bounds[k+1])
			}
			if got.TotalWeight() != wantW || got.TotalEnergy() != wantE {
				return false
			}
			var pg, pw Particle
			for i := 0; i < n; i++ {
				got.Load(i, &pg)
				want.Load(i, &pw)
				if pg != pw {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", layout, err)
		}
	}
}

func TestPopulateInvariants(t *testing.T) {
	m, err := mesh.New(128, 128, mesh.Extent, mesh.Extent, mesh.VacuumDensity)
	if err != nil {
		t.Fatal(err)
	}
	c, h := mesh.Extent/2, mesh.Extent/40
	src := mesh.SourceBox{X0: c - h, X1: c + h, Y0: c - h, Y1: c + h}
	const n = 2000
	b := NewBank(AoS, n)
	populate(b, m, src, 1e-7, 7, 0)
	var p Particle
	for i := 0; i < n; i++ {
		b.Load(i, &p)
		if p.X < src.X0 || p.X >= src.X1 ||
			p.Y < src.Y0 || p.Y >= src.Y1 {
			t.Fatalf("particle %d born outside source box: (%v, %v)", i, p.X, p.Y)
		}
		if r := p.UX*p.UX + p.UY*p.UY; math.Abs(r-1) > 1e-12 {
			t.Fatalf("particle %d direction not unit: %v", i, r)
		}
		if p.Energy != SourceEnergy || p.Weight != SourceWeight {
			t.Fatalf("particle %d birth energy/weight wrong: %v/%v", i, p.Energy, p.Weight)
		}
		if p.MFPToCollision <= 0 {
			t.Fatalf("particle %d born without sampled mean free paths", i)
		}
		if p.TimeToCensus != 1e-7 || p.Status != Alive || p.ID != uint64(i) {
			t.Fatalf("particle %d birth state wrong: %+v", i, p)
		}
		cx, cy := m.CellOf(p.X, p.Y)
		if int32(cx) != p.CellX || int32(cy) != p.CellY {
			t.Fatalf("particle %d cell coordinates stale", i)
		}
	}
	if w := b.TotalWeight(); math.Abs(w-n*SourceWeight) > 1e-9 {
		t.Fatalf("total birth weight = %v, want %v", w, float64(n)*SourceWeight)
	}
	if e := b.TotalEnergy(); math.Abs(e-n*SourceWeight*SourceEnergy) > 1e-3 {
		t.Fatalf("total birth energy = %v", e)
	}
}

func TestPopulateSeedSensitivity(t *testing.T) {
	m, _ := mesh.New(64, 64, mesh.Extent, mesh.Extent, mesh.VacuumDensity)
	src := mesh.SourceBox{X0: 0, X1: mesh.Extent / 10, Y0: 0, Y1: mesh.Extent / 10}
	a := NewBank(AoS, 100)
	b := NewBank(AoS, 100)
	populate(a, m, src, 1e-7, 1, 0)
	populate(b, m, src, 1e-7, 2, 0)
	var pa, pb Particle
	same := 0
	for i := 0; i < 100; i++ {
		a.Load(i, &pa)
		b.Load(i, &pb)
		if pa.X == pb.X && pa.Y == pb.Y {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d/100 particles identical across different seeds", same)
	}
}

func TestParseLayout(t *testing.T) {
	if l, err := ParseLayout("aos"); err != nil || l != AoS {
		t.Error("aos parse failed")
	}
	if l, err := ParseLayout("soa"); err != nil || l != SoA {
		t.Error("soa parse failed")
	}
	if _, err := ParseLayout("other"); err == nil {
		t.Error("bogus layout accepted")
	}
}

func BenchmarkLoadStoreAoS(b *testing.B) {
	bank := NewBank(AoS, 1024)
	var p Particle
	for i := 0; i < b.N; i++ {
		idx := i & 1023
		bank.Load(idx, &p)
		p.X += 1
		bank.Store(idx, &p)
	}
}

func BenchmarkLoadStoreSoA(b *testing.B) {
	bank := NewBank(SoA, 1024)
	var p Particle
	for i := 0; i < b.N; i++ {
		idx := i & 1023
		bank.Load(idx, &p)
		p.X += 1
		bank.Store(idx, &p)
	}
}

// TestBytesPerParticleMatchesFieldSet is the drift guard for the derived
// BytesPerParticle constant: it must equal the summed element sizes of the
// actual SoA columns. Adding a field to the Bank without updating the
// constant (and the snapshot format that shares the field set) fails here.
func TestBytesPerParticleMatchesFieldSet(t *testing.T) {
	cols := reflect.TypeOf(Columns{})
	got := 0
	for i := 0; i < cols.NumField(); i++ {
		got += int(cols.Field(i).Type.Elem().Size())
	}
	if got != BytesPerParticle {
		t.Fatalf("SoA field set is %d bytes per particle, BytesPerParticle = %d", got, BytesPerParticle)
	}
	// The working copy must hold exactly the columns, field for field
	// (padding aside).
	rec := reflect.TypeOf(Particle{})
	if rec.NumField() != cols.NumField() {
		t.Fatalf("Particle has %d fields, bank stores %d columns — update Bank, BytesPerParticle and the core snapshot format together", rec.NumField(), cols.NumField())
	}
	for i := 0; i < cols.NumField(); i++ {
		col := cols.Field(i)
		if f, ok := rec.FieldByName(col.Name); !ok || f.Type != col.Type.Elem() {
			t.Errorf("column %s %v has no Particle field of its element type", col.Name, col.Type)
		}
	}
}

// TestTotalsFieldDirectFastPaths checks the layout-specific TotalWeight /
// TotalEnergy paths against the one-Load-per-particle reference they
// replaced, with a population that includes dead particles.
func TestTotalsFieldDirectFastPaths(t *testing.T) {
	m, err := mesh.New(64, 64, mesh.Extent, mesh.Extent, mesh.VacuumDensity)
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []Layout{AoS, SoA} {
		b := NewBank(layout, 257)
		populate(b, m, mesh.SourceBox{X0: 0, X1: 1, Y0: 0, Y1: 1}, 1e-7, 42, 0)
		var p Particle
		for i := 0; i < b.Len(); i++ {
			b.Load(i, &p)
			p.Weight = 0.25 + float64(i%7)/8
			p.Energy = 1e6 + float64(i)*31
			if i%5 == 0 {
				p.Status = Dead
			} else if i%3 == 0 {
				p.Status = Census
			}
			b.Store(i, &p)
		}

		var wantW, wantE float64
		for i := 0; i < b.Len(); i++ {
			b.Load(i, &p)
			wantW += p.Weight
			if p.Status != Dead {
				wantE += p.Weight * p.Energy
			}
		}
		if got := b.TotalWeight(); got != wantW {
			t.Errorf("%v: TotalWeight = %g, want %g", layout, got, wantW)
		}
		if got := b.TotalEnergy(); got != wantE {
			t.Errorf("%v: TotalEnergy = %g, want %g", layout, got, wantE)
		}
	}
}
