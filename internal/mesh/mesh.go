// Package mesh implements the computational mesh substrate of the neutral
// mini-app: a two-dimensional structured grid of cell-centred mass
// densities with per-edge boundary conditions (reflective by default, as in
// the paper; optionally vacuum, through which particles leak out).
//
// A cell is a material: one byte, an index into the palette of the distinct
// densities painted so far, so a mesh holds at most MaxDensities of them.
//
// The paper (§IV-C) deliberately chooses a simple structured geometry so the
// study exposes issues independent of geometric complexity: facet
// intersection checking reduces to a Cartesian ray–grid intersection, and
// the particle→mesh dependency (density reads, tally writes) dominates the
// performance profile.
package mesh

import (
	"errors"
	"fmt"
	"math"
)

// BC is a boundary condition on one edge of the domain.
type BC uint8

const (
	// Reflective edges bounce particles back into the domain, conserving
	// the population — the paper's only boundary condition (§IV-C).
	Reflective BC = iota
	// Vacuum edges let particles escape: a history crossing one ends and
	// its weight-energy is recorded as leakage instead of deposition.
	Vacuum
)

// String names the boundary condition as used in scene files.
func (b BC) String() string {
	switch b {
	case Reflective:
		return "reflective"
	case Vacuum:
		return "vacuum"
	default:
		return fmt.Sprintf("BC(%d)", uint8(b))
	}
}

// ParseBC converts a scene-file name to a BC; the empty string is the
// reflective default.
func ParseBC(s string) (BC, error) {
	switch s {
	case "", "reflective":
		return Reflective, nil
	case "vacuum":
		return Vacuum, nil
	default:
		return 0, fmt.Errorf("mesh: unknown boundary condition %q (want reflective or vacuum)", s)
	}
}

// Edge identifies one of the four domain edges.
type Edge int

const (
	EdgeXLo  Edge = iota // x = 0
	EdgeXHi              // x = Width
	EdgeYLo              // y = 0
	EdgeYHi              // y = Height
	NumEdges = 4
)

// String names the edge as used in scene files and leakage reports.
func (e Edge) String() string {
	switch e {
	case EdgeXLo:
		return "x-lo"
	case EdgeXHi:
		return "x-hi"
	case EdgeYLo:
		return "y-lo"
	case EdgeYHi:
		return "y-hi"
	default:
		return fmt.Sprintf("Edge(%d)", int(e))
	}
}

// EdgeOf maps a facet crossing's geometry — the axis (0 = x, 1 = y) and the
// direction of cell transition along it (±1) — to the domain edge the
// particle would exit through. Branch-free so the facet handlers stay
// within the compiler's inlining budget.
func EdgeOf(axis, dir int) Edge {
	return Edge(axis<<1 | ((dir + 1) >> 1))
}

// MaxDensities is the number of distinct densities one mesh can hold.
const MaxDensities = 256

// The causes of a refused paint (see Mesh.Err): one distinct density more
// than MaxDensities, and a NaN, infinite or negative one.
var (
	ErrTooManyDensities = fmt.Errorf("mesh: more than %d distinct densities", MaxDensities)
	ErrBadDensity       = errors.New("mesh: density must be finite and non-negative")
)

// Mesh is a uniform 2D structured grid over [0, Width) x [0, Height) with
// NX x NY cells, a cell-centred mass density field in kg/m^3, and a boundary
// condition per domain edge.
type Mesh struct {
	NX, NY        int
	Width, Height float64 // physical extent in metres
	DX, DY        float64 // cell pitch in metres
	// The density field: cell i (storage order) is material mat[i], of
	// density rho[mat[i]]. Scenes have a handful of materials, so a kernel's
	// per-cell gather is one byte and every per-material table stays in L1.
	mat []uint8
	rho []float64
	err error        // first refused paint, sticky (see Err)
	bc  [NumEdges]BC // all Reflective unless SetEdgeBC says otherwise

	// Storage-order state (see Ordering): row-major unless SetOrdering says
	// otherwise. mortonX/mortonY are the per-axis spread tables of the
	// closed-form interleave on power-of-two meshes (code = mortonX[cx] |
	// mortonY[cy]); toStorage is the rank table for other shapes.
	ord       Ordering
	mortonX   []uint32
	mortonY   []uint32
	toStorage []int32
}

// New allocates a mesh with every cell set to the given density.
func New(nx, ny int, width, height, density float64) (*Mesh, error) {
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("mesh: dimensions %dx%d must be positive", nx, ny)
	}
	if width <= 0 || height <= 0 {
		return nil, errors.New("mesh: physical extent must be positive")
	}
	m := &Mesh{
		NX:     nx,
		NY:     ny,
		Width:  width,
		Height: height,
		DX:     width / float64(nx),
		DY:     height / float64(ny),
		mat:    make([]uint8, nx*ny), // every cell is material 0: density
	}
	if _, ok := m.intern(density); !ok {
		return nil, m.err
	}
	return m, nil
}

// intern returns the palette index of density d, adding it when new. It is
// the one door a density enters the mesh through, so it validates there; a
// refused paint is dropped and the first refusal latches Err. Values match by
// bit pattern (-0 is not 0): a cell reads back exactly what was painted.
func (m *Mesh) intern(d float64) (uint8, bool) {
	for k, v := range m.rho {
		if math.Float64bits(v) == math.Float64bits(d) {
			return uint8(k), true
		}
	}
	var err error
	if !(d >= 0) || math.IsInf(d, 1) {
		err = ErrBadDensity
	} else if len(m.rho) == MaxDensities {
		err = ErrTooManyDensities
	}
	if err == nil {
		m.rho = append(m.rho, d)
		return uint8(len(m.rho) - 1), true
	}
	if m.err == nil {
		m.err = fmt.Errorf("%w (painting %v)", err, d)
	}
	return 0, false
}

// Err reports the first paint the mesh refused, wrapping ErrBadDensity or
// ErrTooManyDensities, or nil. The painting methods return nothing, so
// whoever hands the mesh to a density hook checks here afterwards.
func (m *Mesh) Err() error { return m.err }

// NumCells reports the total cell count.
func (m *Mesh) NumCells() int { return m.NX * m.NY }

// EdgeBC reports the boundary condition on one domain edge.
func (m *Mesh) EdgeBC(e Edge) BC { return m.bc[e] }

// SetEdgeBC sets the boundary condition on one domain edge.
func (m *Mesh) SetEdgeBC(e Edge, bc BC) { m.bc[e] = bc }

// HasVacuum reports whether any edge is a vacuum boundary — whether the run
// can leak particles at all.
func (m *Mesh) HasVacuum() bool {
	for _, bc := range m.bc {
		if bc == Vacuum {
			return true
		}
	}
	return false
}

// Index maps (cx, cy) cell coordinates to the flat *logical* cell index —
// always row-major, independent of the storage ordering. Externally visible
// per-cell views (tally slices, snapshots, heat maps) are keyed by this
// index; StorageIndex maps to where the value actually lives.
func (m *Mesh) Index(cx, cy int) int { return cy*m.NX + cx }

// CellOf maps a position to its containing cell, clamping positions on the
// domain boundary into the adjacent interior cell (positions are kept
// strictly inside the domain by the reflective boundary handling).
func (m *Mesh) CellOf(x, y float64) (cx, cy int) {
	cx = int(x / m.DX)
	cy = int(y / m.DY)
	if cx < 0 {
		cx = 0
	} else if cx >= m.NX {
		cx = m.NX - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= m.NY {
		cy = m.NY - 1
	}
	return cx, cy
}

// Density returns the mass density of cell (cx, cy) in kg/m^3. This is the
// random-access read the paper identifies as a primary latency bottleneck.
func (m *Mesh) Density(cx, cy int) float64 { return m.rho[m.Material(cx, cy)] }

// DensityAt returns the density at flat *storage* index i.
func (m *Mesh) DensityAt(i int) float64 { return m.rho[m.mat[i]] }

// Material returns the palette index of cell (cx, cy): the transport
// kernels' per-crossing gather, into tables they build over Palette.
func (m *Mesh) Material(cx, cy int) uint8 { return m.mat[m.StorageIndex(cx, cy)] }

// Palette returns the distinct densities painted so far, indexed by
// Material, read-only. An entry may since have been painted over everywhere.
func (m *Mesh) Palette() []float64 { return m.rho }

// MaxDensity returns the peak density over the cells: the largest palette
// entry some cell still refers to.
func (m *Mesh) MaxDensity() float64 {
	var used [MaxDensities]bool
	for _, k := range m.mat {
		used[k] = true
	}
	max := 0.0
	for k, d := range m.rho {
		if used[k] && d > max {
			max = d
		}
	}
	return max
}

// SetDensity overwrites the density of cell (cx, cy).
func (m *Mesh) SetDensity(cx, cy int, rho float64) {
	if k, ok := m.intern(rho); ok {
		m.mat[m.StorageIndex(cx, cy)] = k
	}
}

// SetRegion fills the axis-aligned box of cells [cx0,cx1) x [cy0,cy1) with
// the given density, clamping the box to the mesh.
func (m *Mesh) SetRegion(cx0, cy0, cx1, cy1 int, rho float64) {
	if cx0 < 0 {
		cx0 = 0
	}
	if cy0 < 0 {
		cy0 = 0
	}
	if cx1 > m.NX {
		cx1 = m.NX
	}
	if cy1 > m.NY {
		cy1 = m.NY
	}
	k, ok := m.intern(rho)
	if !ok {
		return
	}
	if m.ord == RowMajor {
		for cy := cy0; cy < cy1; cy++ {
			row := m.mat[cy*m.NX : (cy+1)*m.NX]
			for cx := cx0; cx < cx1; cx++ {
				row[cx] = k
			}
		}
		return
	}
	for cy := cy0; cy < cy1; cy++ {
		for cx := cx0; cx < cx1; cx++ {
			m.mat[m.mortonIndex(cx, cy)] = k
		}
	}
}

// paintEps is the facet-snapping tolerance of PaintRegion, in cell units: a
// physical coordinate within this distance below a facet is treated as lying
// on it. Region bounds are usually computed in floating point (a third of the
// extent, say), so an exact-facet bound can land an ulp short of the facet;
// without the snap that cell-sized error would move a whole row of cells.
const paintEps = 1e-9

// paintCell maps a physical coordinate to a cell index for region painting:
// floor with the facet snap, clamped into [0, limit] while still a float so
// an oversized bound can never overflow the int conversion (a huge finite
// coordinate must clamp to the domain edge, not wrap negative and silently
// drop the region). The same mapping serves region starts (inclusive) and
// ends (exclusive) because region bounds are facet-aligned half-open
// intervals.
func paintCell(v, pitch float64, limit int) int {
	c := v/pitch + paintEps
	if !(c > 0) { // negative, or NaN from a NaN bound
		return 0
	}
	if c > float64(limit) {
		return limit
	}
	return int(c)
}

// PaintRegion fills the cells covered by the physical axis-aligned box
// [x0,x1) x [y0,y1) with the given density, clamping the box to the domain.
// Each bound floors to a cell index — cx0 = floor(x0/pitch) inclusive,
// cx1 = floor(x1/pitch) exclusive, after the 1e-9-cell upward facet snap —
// so facet-aligned bounds paint exactly the cells between them, and a bound
// in a cell's interior splits that cell to the region containing its low
// facet.
func (m *Mesh) PaintRegion(x0, y0, x1, y1, rho float64) {
	m.SetRegion(paintCell(x0, m.DX, m.NX), paintCell(y0, m.DY, m.NY),
		paintCell(x1, m.DX, m.NX), paintCell(y1, m.DY, m.NY), rho)
}

// FacetX returns the x coordinate of the facet between cell columns cx-1 and
// cx (the left face of column cx).
func (m *Mesh) FacetX(cx int) float64 { return float64(cx) * m.DX }

// FacetY returns the y coordinate of the facet between cell rows cy-1 and cy.
func (m *Mesh) FacetY(cy int) float64 { return float64(cy) * m.DY }
