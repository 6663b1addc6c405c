package mesh

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		nx, ny        int
		w, h, density float64
	}{
		{0, 10, 1, 1, 1},
		{10, 0, 1, 1, 1},
		{-1, 10, 1, 1, 1},
		{10, 10, 0, 1, 1},
		{10, 10, 1, -1, 1},
		{10, 10, 1, 1, -5},
		{10, 10, 1, 1, math.NaN()},
		{10, 10, 1, 1, math.Inf(1)},
	}
	for _, c := range cases {
		if _, err := New(c.nx, c.ny, c.w, c.h, c.density); err == nil {
			t.Errorf("New(%d,%d,%v,%v,%v): expected error", c.nx, c.ny, c.w, c.h, c.density)
		}
	}
	m, err := New(4, 8, 2, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.DX != 0.5 || m.DY != 0.5 {
		t.Errorf("cell pitch = %v, %v, want 0.5, 0.5", m.DX, m.DY)
	}
	if m.NumCells() != 32 {
		t.Errorf("NumCells = %d, want 32", m.NumCells())
	}
}

func TestCellOfRoundTrip(t *testing.T) {
	m, err := New(16, 16, 2.5, 2.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(fx, fy float64) bool {
		// Map to interior coordinates.
		x := math.Mod(math.Abs(fx), 2.5)
		y := math.Mod(math.Abs(fy), 2.5)
		if math.IsNaN(x) {
			x = 0.1
		}
		if math.IsNaN(y) {
			y = 0.1
		}
		cx, cy := m.CellOf(x, y)
		inX := m.FacetX(cx) <= x && x <= m.FacetX(cx+1)
		inY := m.FacetY(cy) <= y && y <= m.FacetY(cy+1)
		return inX && inY
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestCellOfClampsBoundary(t *testing.T) {
	m, _ := New(10, 10, 1, 1, 1)
	for _, c := range []struct {
		x, y           float64
		wantCX, wantCY int
	}{
		{-0.1, 0.5, 0, 5},
		{1.1, 0.5, 9, 5},
		{0.5, -1, 5, 0},
		{0.5, 2, 5, 9},
		{1.0, 1.0, 9, 9}, // exactly on the far boundary
	} {
		cx, cy := m.CellOf(c.x, c.y)
		if cx != c.wantCX || cy != c.wantCY {
			t.Errorf("CellOf(%v,%v) = (%d,%d), want (%d,%d)", c.x, c.y, cx, cy, c.wantCX, c.wantCY)
		}
	}
}

func TestSetRegionAndDensity(t *testing.T) {
	m, _ := New(9, 9, 1, 1, 0.5)
	m.SetRegion(3, 3, 6, 6, 100)
	for cy := 0; cy < 9; cy++ {
		for cx := 0; cx < 9; cx++ {
			want := 0.5
			if cx >= 3 && cx < 6 && cy >= 3 && cy < 6 {
				want = 100
			}
			if got := m.Density(cx, cy); got != want {
				t.Fatalf("density(%d,%d) = %v, want %v", cx, cy, got, want)
			}
		}
	}
	// Region clamping: out-of-range boxes must not panic and must clip.
	m.SetRegion(-5, -5, 100, 2, 7)
	if m.Density(0, 0) != 7 || m.Density(8, 1) != 7 || m.Density(0, 2) == 7 {
		t.Error("SetRegion clamping wrong")
	}
}

// TestRefusedDensities: a density the mesh cannot hold — NaN, negative,
// infinite, or the 257th distinct value — is refused by every painting
// method: the cells keep what they had, the first refusal latches Err with
// its typed cause, and the mesh goes on accepting values it can hold.
func TestRefusedDensities(t *testing.T) {
	paints := map[string]func(m *Mesh, rho float64){
		"SetRegion":   func(m *Mesh, rho float64) { m.SetRegion(0, 0, 3, 3, rho) },
		"PaintRegion": func(m *Mesh, rho float64) { m.PaintRegion(0, 0, 1, 1, rho) },
	}
	for name, paint := range paints {
		for _, bad := range []float64{math.NaN(), -1, math.Inf(1), math.Inf(-1)} {
			m, _ := New(4, 4, 1, 1, 2)
			paint(m, bad)
			if err := m.Err(); !errors.Is(err, ErrBadDensity) {
				t.Errorf("%s(%v): Err = %v, want ErrBadDensity", name, bad, err)
			}
			paint(m, 5)
			if m.Density(1, 1) != 5 || !errors.Is(m.Err(), ErrBadDensity) {
				t.Errorf("%s after a refused %v: density %v, Err %v; want the paint applied and Err kept", name, bad, m.Density(1, 1), m.Err())
			}
		}

		m, _ := New(4, 4, 1, 1, 0)
		for k := 1; k < MaxDensities; k++ {
			m.SetRegion(k%4, k/4%4, k%4+1, k/4%4+1, float64(k))
		}
		if err := m.Err(); err != nil || len(m.Palette()) != MaxDensities {
			t.Fatalf("%d distinct densities: Err = %v, palette %d", MaxDensities, err, len(m.Palette()))
		}
		before := m.Density(1, 1)
		paint(m, 1e6)
		if err := m.Err(); !errors.Is(err, ErrTooManyDensities) {
			t.Errorf("%s of density %d: Err = %v, want ErrTooManyDensities", name, MaxDensities+1, err)
		}
		if got := m.Density(1, 1); got != before {
			t.Errorf("%s of a refused density changed cell (1,1): %v -> %v", name, before, got)
		}
		paint(m, 7) // already in the palette: a full mesh still repaints
		if m.Density(1, 1) != 7 {
			t.Errorf("%s of a held density on a full palette: got %v, want 7", name, m.Density(1, 1))
		}
	}
}

func TestSingleCellMesh(t *testing.T) {
	m, err := New(1, 1, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cx, cy := m.CellOf(0.5, 0.5)
	if cx != 0 || cy != 0 {
		t.Fatalf("CellOf on single-cell mesh = (%d,%d)", cx, cy)
	}
	if m.Density(0, 0) != 3 {
		t.Fatal("density lost on single-cell mesh")
	}
}

// TestCellOfBoundaryClampProperty is the property test for CellOf's
// boundary clamping: any position — interior, exactly on a facet, exactly on
// an edge or corner, or outside the domain — must map to an in-range cell,
// and positions strictly inside a cell must map to that cell, on non-square
// meshes too.
func TestCellOfBoundaryClampProperty(t *testing.T) {
	shapes := []struct {
		nx, ny int
		w, h   float64
	}{
		{16, 16, 2.5, 2.5},
		{7, 31, 1.75, 9.3},   // non-square cells, non-square counts
		{100, 3, 2.5, 0.125}, // extreme aspect ratio
		{1, 1, 1, 1},
	}
	for _, sh := range shapes {
		m, err := New(sh.nx, sh.ny, sh.w, sh.h, 1)
		if err != nil {
			t.Fatal(err)
		}
		inRange := func(x, y float64) bool {
			cx, cy := m.CellOf(x, y)
			return cx >= 0 && cx < m.NX && cy >= 0 && cy < m.NY
		}
		// Every facet coordinate, exactly: interior facets, the domain
		// edges, and every corner pairing.
		for cx := 0; cx <= m.NX; cx++ {
			for cy := 0; cy <= m.NY; cy++ {
				if !inRange(m.FacetX(cx), m.FacetY(cy)) {
					t.Fatalf("%dx%d: CellOf on facet (%d,%d) out of range", sh.nx, sh.ny, cx, cy)
				}
			}
		}
		// Positions exactly on the far boundary clamp to the last cell.
		if cx, cy := m.CellOf(sh.w, sh.h); cx != m.NX-1 || cy != m.NY-1 {
			t.Fatalf("%dx%d: CellOf(W,H) = (%d,%d), want (%d,%d)", sh.nx, sh.ny, cx, cy, m.NX-1, m.NY-1)
		}
		// Random positions, including out-of-domain ones, never escape.
		f := func(fx, fy float64) bool {
			if math.IsNaN(fx) || math.IsNaN(fy) {
				return true
			}
			return inRange(fx, fy)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatalf("%dx%d: %v", sh.nx, sh.ny, err)
		}
		// Strict interiors round-trip: the centre of every cell maps back.
		for cx := 0; cx < m.NX; cx++ {
			for cy := 0; cy < m.NY; cy++ {
				x := (float64(cx) + 0.5) * m.DX
				y := (float64(cy) + 0.5) * m.DY
				if gx, gy := m.CellOf(x, y); gx != cx || gy != cy {
					t.Fatalf("%dx%d: centre of (%d,%d) mapped to (%d,%d)", sh.nx, sh.ny, cx, cy, gx, gy)
				}
			}
		}
	}
}

func TestPaintRegion(t *testing.T) {
	m, _ := New(9, 9, 1, 1, 0.5)
	// Physical thirds paint the same cells as the integer-division region
	// the old problem builder used — the facet snap absorbs the float
	// error in 1/3.
	m.PaintRegion(1.0/3, 1.0/3, 2.0/3, 2.0/3, 100)
	for cy := 0; cy < 9; cy++ {
		for cx := 0; cx < 9; cx++ {
			want := 0.5
			if cx >= 3 && cx < 6 && cy >= 3 && cy < 6 {
				want = 100
			}
			if got := m.Density(cx, cy); got != want {
				t.Fatalf("density(%d,%d) = %v, want %v", cx, cy, got, want)
			}
		}
	}
	// Full-domain paint covers every cell; out-of-domain bounds clamp.
	m.PaintRegion(-1, -1, 5, 5, 7)
	if m.Density(0, 0) != 7 || m.Density(8, 8) != 7 {
		t.Error("full-domain PaintRegion missed cells")
	}
	// Bounds far beyond float→int range clamp to the domain instead of
	// overflowing the conversion and silently dropping the region.
	m.PaintRegion(0.5, 0, 1e300, 2.5, 3)
	if m.Density(8, 8) != 3 || m.Density(0, 0) == 3 {
		t.Error("oversized region bound not clamped to the domain")
	}
	m.PaintRegion(-1e300, -1e300, 1e300, 1e300, 9)
	for cy := 0; cy < 9; cy++ {
		for cx := 0; cx < 9; cx++ {
			if m.Density(cx, cy) != 9 {
				t.Fatalf("infinite-ish region missed cell (%d,%d)", cx, cy)
			}
		}
	}
}

func TestEdgeBCs(t *testing.T) {
	m, _ := New(4, 4, 1, 1, 1)
	if m.HasVacuum() {
		t.Error("fresh mesh reports vacuum edges")
	}
	for e := Edge(0); e < NumEdges; e++ {
		if m.EdgeBC(e) != Reflective {
			t.Errorf("edge %v default BC = %v, want reflective", e, m.EdgeBC(e))
		}
	}
	m.SetEdgeBC(EdgeXHi, Vacuum)
	if m.EdgeBC(EdgeXHi) != Vacuum || m.EdgeBC(EdgeXLo) != Reflective {
		t.Error("SetEdgeBC leaked to another edge")
	}
	if !m.HasVacuum() {
		t.Error("HasVacuum missed the vacuum edge")
	}
	// EdgeOf covers the four (axis, dir) combinations.
	for _, c := range []struct {
		axis, dir int
		want      Edge
	}{{0, -1, EdgeXLo}, {0, 1, EdgeXHi}, {1, -1, EdgeYLo}, {1, 1, EdgeYHi}} {
		if got := EdgeOf(c.axis, c.dir); got != c.want {
			t.Errorf("EdgeOf(%d,%d) = %v, want %v", c.axis, c.dir, got, c.want)
		}
	}
	// BC name round trip, empty-string default included.
	for _, bc := range []BC{Reflective, Vacuum} {
		back, err := ParseBC(bc.String())
		if err != nil || back != bc {
			t.Errorf("BC round trip %v failed: %v %v", bc, back, err)
		}
	}
	if bc, err := ParseBC(""); err != nil || bc != Reflective {
		t.Error("empty BC name should default to reflective")
	}
	if _, err := ParseBC("periodic"); err == nil {
		t.Error("unknown BC accepted")
	}
}

func TestParseProblem(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Problem
	}{{"stream", Stream}, {"scatter", Scatter}, {"csp", CSP}} {
		got, err := ParseProblem(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseProblem(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseProblem("bogus"); err == nil {
		t.Error("ParseProblem(bogus) did not fail")
	}
	for _, p := range []Problem{Stream, Scatter, CSP} {
		back, err := ParseProblem(p.String())
		if err != nil || back != p {
			t.Errorf("round trip failed for %v", p)
		}
	}
}

func TestFacetCoordinates(t *testing.T) {
	m, _ := New(4, 5, 2, 2.5, 1)
	if m.FacetX(0) != 0 || m.FacetX(4) != 2 {
		t.Errorf("x facets wrong: %v %v", m.FacetX(0), m.FacetX(4))
	}
	if m.FacetY(0) != 0 || m.FacetY(5) != 2.5 {
		t.Errorf("y facets wrong: %v %v", m.FacetY(0), m.FacetY(5))
	}
	if d := m.FacetX(2) - m.FacetX(1); math.Abs(d-m.DX) > 1e-15 {
		t.Errorf("facet pitch %v != DX %v", d, m.DX)
	}
}
