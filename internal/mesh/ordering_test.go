package mesh

import (
	"math"
	"math/rand"
	"testing"
)

// TestMortonBijection checks that StorageIndex under Morton ordering is a
// bijection [0,NX) x [0,NY) -> [0, NX*NY) on meshes of every shape class:
// square and rectangular powers of two (closed-form interleave), non-powers
// of two and mixed shapes (rank table), and degenerate single-row/column
// meshes.
func TestMortonBijection(t *testing.T) {
	shapes := [][2]int{
		{64, 64}, {512, 128}, {4, 256}, // pow2: closed form
		{7, 13}, {100, 3}, {65, 64}, {33, 127}, // non-pow2: rank table
		{1, 17}, {19, 1}, {1, 1}, // degenerate
	}
	for _, sh := range shapes {
		nx, ny := sh[0], sh[1]
		m, err := New(nx, ny, 1, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		m.SetOrdering(Morton)
		seen := make([]bool, nx*ny)
		for cy := 0; cy < ny; cy++ {
			for cx := 0; cx < nx; cx++ {
				s := m.StorageIndex(cx, cy)
				if s < 0 || s >= nx*ny {
					t.Fatalf("%dx%d: storage index %d for (%d,%d) out of range", nx, ny, s, cx, cy)
				}
				if seen[s] {
					t.Fatalf("%dx%d: storage index %d hit twice (at %d,%d)", nx, ny, s, cx, cy)
				}
				seen[s] = true
			}
		}
	}
}

// TestMortonLocality pins the defining property of the closed-form curve:
// on a power-of-two mesh every aligned 2x2 block is storage-contiguous.
func TestMortonLocality(t *testing.T) {
	m, err := New(64, 64, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.SetOrdering(Morton)
	for cy := 0; cy < 64; cy += 2 {
		for cx := 0; cx < 64; cx += 2 {
			base := m.StorageIndex(cx, cy)
			if base%4 != 0 {
				t.Fatalf("2x2 block at (%d,%d) not 4-aligned: %d", cx, cy, base)
			}
			got := [4]int{
				m.StorageIndex(cx, cy), m.StorageIndex(cx+1, cy),
				m.StorageIndex(cx, cy+1), m.StorageIndex(cx+1, cy+1),
			}
			want := [4]int{base, base + 1, base + 2, base + 3}
			if got != want {
				t.Fatalf("2x2 block at (%d,%d): %v, want %v", cx, cy, got, want)
			}
		}
	}
}

// TestSetOrderingPreservesField is the cell field's property test: random
// single-cell SetRegion / SetRegion / PaintRegion sequences over at most MaxDensities
// values, against a dense []float64 reference painted the obvious way. The
// two must agree bit for bit (-0 is not 0) under row-major, closed-form
// Morton (power-of-two shapes) and rank-table Morton, before and after each
// leg of a RowMajor -> Morton -> RowMajor round trip, with painting through
// the logical accessors continuing under every ordering.
func TestSetOrderingPreservesField(t *testing.T) {
	shapes := [][2]int{{37, 22}, {64, 16}, {32, 32}, {1, 9}}
	for _, sh := range shapes {
		nx, ny := sh[0], sh[1]
		for seed := int64(1); seed <= 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			// The value pool: 0 (the fill), -0, and random others, so a
			// long sequence reaches a full palette without overflowing it.
			pool := make([]float64, MaxDensities)
			pool[1] = math.Copysign(0, -1)
			for i := 2; i < len(pool); i++ {
				pool[i] = r.Float64() * 1e3
			}
			m, err := New(nx, ny, 3, 2, pool[0])
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, nx*ny)
			box := func(cx0, cy0, cx1, cy1 int, rho float64) {
				for cy := max(cy0, 0); cy < min(cy1, ny); cy++ {
					for cx := max(cx0, 0); cx < min(cx1, nx); cx++ {
						want[cy*nx+cx] = rho
					}
				}
			}
			paint := func(ops int) {
				for ; ops > 0; ops-- {
					rho := pool[r.Intn(len(pool))]
					// Boxes reach past the mesh on every side and are
					// sometimes empty or inverted.
					cx0, cy0 := r.Intn(nx+4)-2, r.Intn(ny+4)-2
					cx1, cy1 := cx0+r.Intn(nx/2+2)-1, cy0+r.Intn(ny/2+2)-1
					switch r.Intn(3) {
					case 0:
						cx, cy := r.Intn(nx), r.Intn(ny)
						m.SetRegion(cx, cy, cx+1, cy+1, rho)
						want[cy*nx+cx] = rho
					case 1:
						m.SetRegion(cx0, cy0, cx1, cy1, rho)
						box(cx0, cy0, cx1, cy1, rho)
					default:
						// Facet-aligned physical bounds name the same box.
						m.PaintRegion(m.FacetX(cx0), m.FacetY(cy0), m.FacetX(cx1), m.FacetY(cy1), rho)
						box(cx0, cy0, cx1, cy1, rho)
					}
				}
			}
			check := func(stage string) {
				t.Helper()
				if err := m.Err(); err != nil {
					t.Fatalf("%dx%d seed %d %s: %v", nx, ny, seed, stage, err)
				}
				peak := 0.0
				for cy := 0; cy < ny; cy++ {
					for cx := 0; cx < nx; cx++ {
						w := want[cy*nx+cx]
						got, at := m.Density(cx, cy), m.DensityAt(m.StorageIndex(cx, cy))
						if math.Float64bits(got) != math.Float64bits(w) || math.Float64bits(at) != math.Float64bits(w) {
							t.Fatalf("%dx%d seed %d %s: density(%d,%d) = %v (at storage index: %v), want %v",
								nx, ny, seed, stage, cx, cy, got, at, w)
						}
						if m.Palette()[m.Material(cx, cy)] != got {
							t.Fatalf("%dx%d seed %d %s: Palette/Material disagree with Density at (%d,%d)", nx, ny, seed, stage, cx, cy)
						}
						peak = math.Max(peak, w)
					}
				}
				if got := m.MaxDensity(); got != peak {
					t.Fatalf("%dx%d seed %d %s: MaxDensity = %v, want %v", nx, ny, seed, stage, got, peak)
				}
			}
			paint(60)
			check("row-major")
			m.SetOrdering(Morton)
			check("after morton")
			paint(400)
			check("painted under morton")
			m.SetOrdering(RowMajor)
			check("after round trip")
			paint(400)
			check("painted after round trip")
			// Back under row-major, storage and logical indices coincide.
			for cy := 0; cy < ny; cy++ {
				for cx := 0; cx < nx; cx++ {
					if m.StorageIndex(cx, cy) != m.Index(cx, cy) {
						t.Fatalf("row-major storage index diverged at (%d,%d)", cx, cy)
					}
				}
			}
		}
	}
}

// TestParseOrdering covers the flag vocabulary.
func TestParseOrdering(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Ordering
	}{
		{"", RowMajor}, {"row-major", RowMajor}, {"rowmajor", RowMajor},
		{"morton", Morton}, {"z-order", Morton}, {"zorder", Morton},
	} {
		got, err := ParseOrdering(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseOrdering(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseOrdering("hilbert"); err == nil {
		t.Error("ParseOrdering accepted an unknown ordering")
	}
	if RowMajor.String() != "row-major" || Morton.String() != "morton" {
		t.Error("Ordering.String drifted from the flag vocabulary")
	}
}
