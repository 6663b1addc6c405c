package scene

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/particle"
)

// legacyBuild is the pre-scene hardcoded problem builder, kept verbatim as
// the reference: Preset scenes must paint bit-identical meshes and produce
// identical source geometry at every resolution, or the golden physics
// vectors would silently move.
func legacyBuild(p mesh.Problem, nx, ny int) (*mesh.Mesh, mesh.SourceBox, error) {
	m, err := mesh.New(nx, ny, mesh.Extent, mesh.Extent, mesh.VacuumDensity)
	if err != nil {
		return nil, mesh.SourceBox{}, err
	}
	var src mesh.SourceBox
	switch p {
	case mesh.Stream:
		c, h := mesh.Extent/2, mesh.Extent/40
		src = mesh.SourceBox{X0: c - h, X1: c + h, Y0: c - h, Y1: c + h}
	case mesh.Scatter:
		m.SetRegion(0, 0, nx, ny, mesh.DenseDensity)
		c, h := mesh.Extent/2, mesh.Extent/40
		src = mesh.SourceBox{X0: c - h, X1: c + h, Y0: c - h, Y1: c + h}
	case mesh.CSP:
		m.SetRegion(nx/3, ny/3, 2*nx/3, 2*ny/3, mesh.DenseDensity)
		h := mesh.Extent / 10
		src = mesh.SourceBox{X0: 0, X1: h, Y0: 0, Y1: h}
	}
	return m, src, nil
}

// TestPresetsMatchLegacyBuilder pins every preset against the legacy
// construction cell for cell across a spread of resolutions, including sizes
// divisible and not divisible by 3 (the csp region boundary) and non-square
// meshes.
func TestPresetsMatchLegacyBuilder(t *testing.T) {
	sizes := [][2]int{
		{8, 8}, {17, 17}, {48, 48}, {64, 64}, {66, 66}, {100, 100},
		{127, 127}, {512, 512}, {96, 33}, {33, 96},
	}
	for _, p := range []mesh.Problem{mesh.Stream, mesh.Scatter, mesh.CSP} {
		s, err := Preset(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, sz := range sizes {
			nx, ny := sz[0], sz[1]
			want, wantSrc, err := legacyBuild(p, nx, ny)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Build(nx, ny)
			if err != nil {
				t.Fatalf("%v %dx%d: %v", p, nx, ny, err)
			}
			if got.Width != want.Width || got.Height != want.Height ||
				got.DX != want.DX || got.DY != want.DY {
				t.Fatalf("%v %dx%d: geometry differs", p, nx, ny)
			}
			for i := 0; i < want.NumCells(); i++ {
				if got.DensityAt(i) != want.DensityAt(i) {
					t.Fatalf("%v %dx%d: cell %d density %g, want %g",
						p, nx, ny, i, got.DensityAt(i), want.DensityAt(i))
				}
			}
			if got.HasVacuum() {
				t.Fatalf("%v: paper preset has a vacuum edge", p)
			}
			terms := s.SourceTerms()
			if len(terms) != 1 {
				t.Fatalf("%v: preset has %d sources, want 1", p, len(terms))
			}
			if terms[0].Box != wantSrc {
				t.Fatalf("%v: source box %+v, want %+v", p, terms[0].Box, wantSrc)
			}
			if terms[0].Weight != particle.SourceWeight || terms[0].Energy != particle.SourceEnergy ||
				terms[0].EnergyJitter != 0 || terms[0].WeightJitter != 0 || terms[0].TimeJitter != 0 {
				t.Fatalf("%v: preset source term not the paper birth state: %+v", p, terms[0])
			}
		}
	}
}

// TestPresetPopulateBitIdentical: the preset source terms drive the
// multi-source sampler to the exact records of the paper's single
// unit-weight source term over the preset's box.
func TestPresetPopulateBitIdentical(t *testing.T) {
	for _, p := range []mesh.Problem{mesh.Stream, mesh.Scatter, mesh.CSP} {
		s, _ := Preset(p)
		m, err := s.Build(64, 64)
		if err != nil {
			t.Fatal(err)
		}
		const n = 300
		want := particle.NewBank(particle.AoS, n)
		particle.Births(want, m, []particle.SourceTerm{{Box: s.SourceTerms()[0].Box, Share: 1,
			Weight: particle.SourceWeight, Energy: particle.SourceEnergy}}, 1e-7, 42, 0, 0, n)
		got := particle.NewBank(particle.AoS, n)
		particle.Births(got, m, s.SourceTerms(), 1e-7, 42, 0, 0, n)
		var pw, pg particle.Particle
		for i := 0; i < n; i++ {
			want.Load(i, &pw)
			got.Load(i, &pg)
			if pw != pg {
				t.Fatalf("%v: particle %d differs:\nwant %+v\ngot  %+v", p, i, pw, pg)
			}
		}
	}
}

func TestParseValidateAndHash(t *testing.T) {
	const duct = `{
		"name": "duct",
		"materials": [
			{"name": "shield", "density": 1000},
			{"name": "air", "density": 1e-10}
		],
		"background": "shield",
		"regions": [
			{"material": "air", "x0": 0, "x1": 2.5, "y0": 1.0, "y1": 1.5}
		],
		"sources": [{"x0": 0.1, "x1": 0.3, "y0": 1.1, "y1": 1.4}],
		"boundaries": {"x_hi": "vacuum"}
	}`
	s, err := Parse([]byte(duct))
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasVacuum() {
		t.Error("vacuum boundary lost in parsing")
	}
	if s.Sources[0].Share != 1 || s.Sources[0].Weight != 1 || s.Sources[0].Energy != particle.SourceEnergy {
		t.Errorf("source defaults not resolved: %+v", s.Sources[0])
	}
	if s.Width != mesh.Extent || s.Height != mesh.Extent {
		t.Errorf("domain default not resolved: %gx%g", s.Width, s.Height)
	}

	m, err := s.Build(50, 50)
	if err != nil {
		t.Fatal(err)
	}
	if m.EdgeBC(mesh.EdgeXHi) != mesh.Vacuum || m.EdgeBC(mesh.EdgeXLo) != mesh.Reflective {
		t.Error("edge BCs not painted")
	}
	// Duct row: y=1.25 is air, y=0.5 is shield.
	cx, cy := m.CellOf(1.25, 1.25)
	if m.Density(cx, cy) != 1e-10 {
		t.Error("duct corridor not painted")
	}
	cx, cy = m.CellOf(1.25, 0.5)
	if m.Density(cx, cy) != 1000 {
		t.Error("shield background lost")
	}

	// Hash: name changes don't move it, physics changes do, and material
	// renames that preserve densities don't.
	h := s.Hash()
	renamed := strings.ReplaceAll(duct, "shield", "concrete")
	s2, err := Parse([]byte(renamed))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Hash() != h {
		t.Error("pure material rename moved the hash")
	}
	s3, err := Parse([]byte(strings.Replace(duct, `"density": 1000`, `"density": 999`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if s3.Hash() == h {
		t.Error("density change did not move the hash")
	}
	s4, err := Parse([]byte(strings.Replace(duct, `"x_hi": "vacuum"`, `"y_hi": "vacuum"`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if s4.Hash() == h {
		t.Error("boundary change did not move the hash")
	}

	// Canonical JSON round-trips to the same hash.
	canon, err := s.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(canon)
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != h {
		t.Error("canonical JSON round trip moved the hash")
	}
}

func TestValidateErrors(t *testing.T) {
	base := func() *Scene {
		return &Scene{
			Materials: []Material{{Name: "m", Density: 1}},
			Sources:   []Source{{X0: 0, X1: 1, Y0: 0, Y1: 1}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Scene)
	}{
		{"no materials", func(s *Scene) { s.Materials = nil }},
		{"unnamed material", func(s *Scene) { s.Materials[0].Name = "" }},
		{"duplicate material", func(s *Scene) { s.Materials = append(s.Materials, s.Materials[0]) }},
		{"negative density", func(s *Scene) { s.Materials[0].Density = -1 }},
		{"unknown background", func(s *Scene) { s.Background = "nope" }},
		{"unknown region material", func(s *Scene) {
			s.Regions = []Region{{Material: "nope", X0: 0, X1: 1, Y0: 0, Y1: 1}}
		}},
		{"empty region", func(s *Scene) {
			s.Regions = []Region{{Material: "m", X0: 1, X1: 1, Y0: 0, Y1: 1}}
		}},
		{"no sources", func(s *Scene) { s.Sources = nil }},
		{"inverted source", func(s *Scene) { s.Sources[0].X1 = -1 }},
		{"source outside domain", func(s *Scene) { s.Sources[0].X1 = 99 }},
		{"negative share", func(s *Scene) { s.Sources[0].Share = -2 }},
		{"negative weight", func(s *Scene) { s.Sources[0].Weight = -1 }},
		{"energy jitter one", func(s *Scene) { s.Sources[0].EnergyJitter = 1 }},
		{"time jitter above one", func(s *Scene) { s.Sources[0].TimeJitter = 1.5 }},
		{"bad boundary", func(s *Scene) { s.Boundaries.XLo = "periodic" }},
		{"negative extent", func(s *Scene) { s.Width = -1 }},
		{"NaN source weight", func(s *Scene) { s.Sources[0].Weight = math.NaN() }},
		{"NaN source coordinate", func(s *Scene) { s.Sources[0].X0 = math.NaN() }},
		{"infinite source energy", func(s *Scene) { s.Sources[0].Energy = math.Inf(1) }},
		{"NaN jitter", func(s *Scene) { s.Sources[0].TimeJitter = math.NaN() }},
	}
	for _, c := range cases {
		s := base()
		c.mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base scene rejected: %v", err)
	}
}

// TestMaterialLimit: a mesh cell is a one-byte material index, so a scene
// painting mesh.MaxDensities distinct densities builds and one more is
// refused by Validate in the scene's own words — however many materials it
// merely declares, and however many names share a density.
func TestMaterialLimit(t *testing.T) {
	stripes := func(used, declared int) *Scene {
		s := &Scene{Sources: []Source{{X0: 0, X1: 1, Y0: 0, Y1: 1}}}
		for i := 0; i < declared; i++ {
			s.Materials = append(s.Materials, Material{Name: fmt.Sprint("m", i), Density: float64(i % used)})
		}
		w := mesh.Extent / float64(declared)
		for i := 1; i < declared; i++ {
			s.Regions = append(s.Regions, Region{Material: fmt.Sprint("m", i),
				X0: float64(i) * w, X1: float64(i+1) * w, Y0: 0, Y1: mesh.Extent})
		}
		return s
	}
	m, err := stripes(mesh.MaxDensities, 300).Build(600, 2)
	if err != nil {
		t.Fatalf("%d distinct densities under 300 names: %v", mesh.MaxDensities, err)
	}
	if got := len(m.Palette()); got != mesh.MaxDensities {
		t.Errorf("palette holds %d densities, want %d", got, mesh.MaxDensities)
	}
	err = stripes(mesh.MaxDensities+1, 300).Validate()
	if !errors.Is(err, mesh.ErrTooManyDensities) || !strings.Contains(err.Error(), "257 distinct material densities") {
		t.Errorf("257 distinct densities: Validate = %v", err)
	}
	unused := stripes(3, 3)
	for i := 0; i < 400; i++ {
		unused.Materials = append(unused.Materials, Material{Name: fmt.Sprint("spare", i), Density: 100 + float64(i)})
	}
	if err := unused.Validate(); err != nil {
		t.Errorf("400 declared but unpainted materials: %v", err)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"materials":[{"name":"m","density":1}],"sources":[{"x0":0,"x1":1,"y0":0,"y1":1}],"densty":5}`)); err == nil {
		t.Fatal("unknown top-level field accepted")
	}
	if _, err := Parse([]byte(`{"materials":[{"name":"m","densty":1}],"sources":[{"x0":0,"x1":1,"y0":0,"y1":1}]}`)); err == nil {
		t.Fatal("typoed nested field accepted")
	}
	if _, err := Parse([]byte(`{"materials":[{"name":"m","density":1}],"sources":[{"x0":0,"x1":1,"y0":0,"y1":1}]}` + "\n{}")); err == nil {
		t.Fatal("trailing data after the scene document accepted")
	}
}

// TestMultiSourceApportionment: shares split the bank deterministically and
// proportionally, and every particle is born inside its own term's box.
func TestMultiSourceApportionment(t *testing.T) {
	s := &Scene{
		Materials: []Material{{Name: "m", Density: 1}},
		Sources: []Source{
			{X0: 0, X1: 0.5, Y0: 0, Y1: 0.5, Share: 3},
			{X0: 2.0, X1: 2.5, Y0: 2.0, Y1: 2.5, Share: 1},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := s.Build(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	b := particle.NewBank(particle.AoS, n)
	particle.Births(b, m, s.SourceTerms(), 1e-7, 9, 0, 0, n)
	bw, be := b.SumFrom(0, 0, 0)
	if bw != n || be != n*particle.SourceEnergy {
		t.Fatalf("birth totals %g / %g, want %d / %g", bw, be, n, float64(n)*particle.SourceEnergy)
	}
	var p particle.Particle
	first, second := 0, 0
	for i := 0; i < n; i++ {
		b.Load(i, &p)
		switch {
		case p.X < 0.5 && p.Y < 0.5:
			first++
			if i >= 750 {
				t.Fatalf("particle %d from source 0 outside its index range", i)
			}
		case p.X >= 2.0 && p.Y >= 2.0:
			second++
			if i < 750 {
				t.Fatalf("particle %d from source 1 outside its index range", i)
			}
		default:
			t.Fatalf("particle %d born outside every source box: (%g, %g)", i, p.X, p.Y)
		}
	}
	if first != 750 || second != 250 {
		t.Fatalf("apportionment %d/%d, want 750/250", first, second)
	}
}

// TestSourceJitterDraws: jittered terms perturb energy, weight and census
// time within their windows, using the particle's own stream (so the draw
// count is visible in the RNG counter), while zero jitter draws nothing.
func TestSourceJitterDraws(t *testing.T) {
	m, err := mesh.New(16, 16, 2.5, 2.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain := []particle.SourceTerm{{
		Box:   mesh.SourceBox{X0: 0, X1: 1, Y0: 0, Y1: 1},
		Share: 1, Weight: 1, Energy: 1e7,
	}}
	jittered := []particle.SourceTerm{{
		Box:   mesh.SourceBox{X0: 0, X1: 1, Y0: 0, Y1: 1},
		Share: 1, Weight: 1, Energy: 1e7,
		EnergyJitter: 0.25, WeightJitter: 0.5, TimeJitter: 1,
	}}
	const n = 400
	const dt = 1e-7
	a := particle.NewBank(particle.AoS, n)
	particle.Births(a, m, plain, dt, 3, 0, 0, n)
	b := particle.NewBank(particle.AoS, n)
	particle.Births(b, m, jittered, dt, 3, 0, 0, n)
	var pa, pb particle.Particle
	varied := 0
	for i := 0; i < n; i++ {
		a.Load(i, &pa)
		b.Load(i, &pb)
		if pa.RNGCounter+3 != pb.RNGCounter {
			t.Fatalf("particle %d: jitter consumed %d draws, want 3", i, pb.RNGCounter-pa.RNGCounter)
		}
		if pb.Energy < 1e7*0.75 || pb.Energy >= 1e7*1.25 {
			t.Fatalf("particle %d energy %g outside jitter window", i, pb.Energy)
		}
		if pb.Weight < 0.5 || pb.Weight >= 1.5 {
			t.Fatalf("particle %d weight %g outside jitter window", i, pb.Weight)
		}
		if pb.TimeToCensus <= 0 || pb.TimeToCensus > dt {
			t.Fatalf("particle %d census time %g outside (0, dt]", i, pb.TimeToCensus)
		}
		if pb.Energy != pa.Energy || pb.Weight != pa.Weight || pb.TimeToCensus != pa.TimeToCensus {
			varied++
		}
		// Position and direction draws precede the jitter draws, so the
		// flight geometry is shared.
		if pa.X != pb.X || pa.Y != pb.Y || pa.UX != pb.UX || pa.UY != pb.UY {
			t.Fatalf("particle %d: jitter moved the birth position", i)
		}
	}
	if varied < n/2 {
		t.Fatalf("only %d/%d particles show jitter", varied, n)
	}
}
