package mesh

import (
	"fmt"
	"math/bits"
	"sort"
)

// Ordering selects the storage order of the mesh's cell-centred fields (the
// material index here, and the tally mesh the solver allocates alongside it).
// The logical mesh is always the same NX x NY row-major grid — cell (cx, cy)
// keeps its meaning, scene painting and every externally visible per-cell
// view stay in row-major order — but the *storage* index a cell's value
// lives at may follow a space-filling curve instead.
//
// The paper attributes the solver's profile to the particle→mesh dependency:
// a streaming particle reads the density of its cell and writes the tally of
// the cell it leaves, and under row-major storage a vertical neighbour is a
// whole row away — NX*8 bytes in the tally, a different cache line for any
// mesh wider than 8 cells (64 for the one-byte cell field). A Z-order
// (Morton) curve stores the four neighbours of a 2x2 block adjacently and
// keeps every 2^k x 2^k tile contiguous, so a particle random-walking
// through a neighbourhood touches far fewer distinct lines.
type Ordering uint8

const (
	// RowMajor stores cell (cx, cy) at cy*NX + cx — the historical layout
	// and the zero value.
	RowMajor Ordering = iota
	// Morton stores cells along a Z-order curve: the storage index
	// interleaves the bits of cx and cy, keeping spatial neighbourhoods
	// contiguous. Power-of-two meshes use a closed-form bit interleave in
	// the hot path; other shapes fall back to a precomputed rank table
	// (still a bijection — see TestMortonBijection).
	Morton
)

// String names the ordering as used in flags and reports.
func (o Ordering) String() string {
	switch o {
	case RowMajor:
		return "row-major"
	case Morton:
		return "morton"
	default:
		return fmt.Sprintf("Ordering(%d)", uint8(o))
	}
}

// ParseOrdering converts a name to an Ordering; the empty string is the
// row-major default.
func ParseOrdering(s string) (Ordering, error) {
	switch s {
	case "", "row-major", "rowmajor":
		return RowMajor, nil
	case "morton", "z-order", "zorder":
		return Morton, nil
	default:
		return 0, fmt.Errorf("mesh: unknown ordering %q (want row-major or morton)", s)
	}
}

// part1by1 spreads the low 32 bits of v so bit i lands at bit 2i — one half
// of the classic Morton interleave.
func part1by1(v uint64) uint64 {
	v &= 0x00000000ffffffff
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// mortonCode interleaves x (even bits) and y (odd bits) — the unbounded
// Z-order code used to rank cells when no closed form applies.
func mortonCode(x, y uint64) uint64 {
	return part1by1(x) | part1by1(y)<<1
}

// setOrdering installs o as the mesh's storage order parameters without
// touching the cell field; SetOrdering wraps it with the permutation.
func (m *Mesh) setOrdering(o Ordering) {
	m.ord = o
	m.mortonX = nil
	m.mortonY = nil
	m.toStorage = nil
	if o != Morton {
		return
	}
	// Closed form for power-of-two dimensions: interleave the low
	// k = min(log2 NX, log2 NY) bits of the two coordinates, then append
	// the remaining high bits of the longer axis above the interleaved
	// field. That truncated Z-order is a bijection onto [0, NX*NY): the
	// low 2k bits range over every k-bit (cx, cy) pair and the high field
	// ranges over the longer axis's residue.
	//
	// The interleave is separable by axis — the x bits of the code never
	// depend on y and vice versa — so it is precomputed into one spread
	// table per axis and the hot path is two L1-resident loads and an OR,
	// cheaper than running the bit spread per access (which benchmarked
	// ~20% slower end to end on the event kernels).
	if bits.OnesCount(uint(m.NX)) == 1 && bits.OnesCount(uint(m.NY)) == 1 {
		k := bits.TrailingZeros(uint(m.NX))
		if ky := bits.TrailingZeros(uint(m.NY)); ky < k {
			k = ky
		}
		lm := uint64(1)<<k - 1
		m.mortonX = make([]uint32, m.NX)
		for x := range m.mortonX {
			v := uint64(x)
			m.mortonX[x] = uint32(part1by1(v&lm) | (v&^lm)<<k)
		}
		m.mortonY = make([]uint32, m.NY)
		for y := range m.mortonY {
			v := uint64(y)
			m.mortonY[y] = uint32(part1by1(v&lm)<<1 | (v&^lm)<<k)
		}
		return
	}
	// General shapes: rank every cell by its unbounded Z-order code.
	// Codes are unique per (cx, cy), so ranking is a permutation of the
	// logical indices — a bijection for any NX x NY, power of two or not.
	type cellCode struct {
		code    uint64
		logical int32
	}
	codes := make([]cellCode, m.NX*m.NY)
	for cy := 0; cy < m.NY; cy++ {
		for cx := 0; cx < m.NX; cx++ {
			l := cy*m.NX + cx
			codes[l] = cellCode{mortonCode(uint64(cx), uint64(cy)), int32(l)}
		}
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i].code < codes[j].code })
	m.toStorage = make([]int32, len(codes))
	for rank, cc := range codes {
		m.toStorage[cc.logical] = int32(rank)
	}
}

// SetOrdering re-stores the mesh's cell-centred fields in the given order.
// The logical density field is preserved exactly — Density(cx, cy) returns
// the same value before and after — only the storage permutation changes.
// The solver applies the configured ordering once at (re)build time; callers
// painting a mesh through the logical accessors never need to care.
func (m *Mesh) SetOrdering(o Ordering) {
	if o == m.ord {
		return
	}
	logical := make([]uint8, len(m.mat))
	for cy := 0; cy < m.NY; cy++ {
		for cx := 0; cx < m.NX; cx++ {
			logical[cy*m.NX+cx] = m.Material(cx, cy)
		}
	}
	m.setOrdering(o)
	for cy := 0; cy < m.NY; cy++ {
		for cx := 0; cx < m.NX; cx++ {
			m.mat[m.StorageIndex(cx, cy)] = logical[cy*m.NX+cx]
		}
	}
}

// Ordering reports the mesh's storage order.
func (m *Mesh) Ordering() Ordering { return m.ord }

// StorageIndex maps (cx, cy) cell coordinates to the index their value is
// stored at — equal to Index under row-major ordering. Per-cell arrays that
// want to share the mesh's locality (the solver's tally) index with this;
// externally visible views remap back to logical order with Index.
func (m *Mesh) StorageIndex(cx, cy int) int {
	if m.ord == RowMajor {
		return cy*m.NX + cx
	}
	return m.mortonIndex(cx, cy)
}

// mortonIndex is the Morton branch of StorageIndex, kept out of line so the
// row-major fast path stays within the inlining budget of the hot loops.
func (m *Mesh) mortonIndex(cx, cy int) int {
	if m.toStorage != nil {
		return int(m.toStorage[cy*m.NX+cx])
	}
	return int(m.mortonX[cx] | m.mortonY[cy])
}
