package core

import (
	"slices"

	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/tally"
)

// This file holds the cache-locality execution machinery of DESIGN.md §15:
// the storage-order remapping that keeps every externally visible per-cell
// view in logical row-major order whatever ordering the mesh-shaped arrays
// use internally, and the periodic cell-sorted bank pass. Both are pure
// execution strategy — physics, counters and tallies are bit-identical with
// them on or off.

// tallyCellsLogical returns the live per-cell tally indexed by logical
// row-major cell index. Under row-major storage that is the tally's own
// dense view (built at the call); under any other ordering the
// values are remapped into a scratch slice owned by the run and reused
// across calls, with the same validity contract as the underlying slice:
// invalidated by the next Step or Reset.
func (r *run) tallyCellsLogical() []float64 {
	cells := r.tly.Cells()
	if r.mesh.Ordering() == mesh.RowMajor || cells == nil {
		return cells
	}
	m := r.mesh
	if cap(r.logicalCells) < len(cells) {
		r.logicalCells = make([]float64, len(cells))
	}
	out := r.logicalCells[:len(cells)]
	for cy := 0; cy < m.NY; cy++ {
		row := out[cy*m.NX : (cy+1)*m.NX]
		for cx := range row {
			row[cx] = cells[m.StorageIndex(cx, cy)]
		}
	}
	return out
}

// tallyNonZeroLogical returns the tally's non-zero cells, in ticks, keyed by
// logical index, ascending — the sparse view a snapshot stores. Under
// row-major storage that is the tally's own sparse view, which costs what was
// deposited; other orderings walk the logical cells and look each one up in
// the dense ticks. The slice is scratch owned by the run, valid until the
// next call.
func (r *run) tallyNonZeroLogical() []tally.Cell {
	m := r.mesh
	if m.Ordering() == mesh.RowMajor {
		r.sparseCells = r.tly.NonZero(r.sparseCells[:0])
		return r.sparseCells
	}
	out := r.sparseCells[:0]
	if ticks := r.tly.Ticks(); ticks != nil {
		for cy := 0; cy < m.NY; cy++ {
			for cx := 0; cx < m.NX; cx++ {
				if t := ticks[m.StorageIndex(cx, cy)]; t != 0 {
					out = append(out, tally.Cell{Index: m.Index(cx, cy), Ticks: t})
				}
			}
		}
	}
	r.sparseCells = out
	return out
}

// retiredSlotKey sorts after every live cell key, parking dead and escaped
// slots in a contiguous suffix so the kernels' active sweeps never interleave
// retired records with the live working set. Cell storage indices are bounded
// by NX*NY and the bank slot count fits int32, so both pack into one uint64.
const retiredSlotKey = 1<<32 - 1

// sortStep reorders the particle bank by the storage index of each live
// particle's cell — the periodic bank sort of Config.SortEvery. After the
// sort, particles in the same cell (and, under Morton ordering, the same
// spatial neighbourhood) occupy adjacent bank slots, so the density reads
// and tally writes of the following steps walk the mesh arrays coherently
// instead of at random.
//
// The pass runs serially at the step boundary, outside both scheme loops —
// like the weight-window control step — so Over Particles and Over Events
// see the identical permuted bank and stay bit-identical to each other.
// Sorting is keyed by (cell, slot): stable, so equal-cell particles keep
// their relative order and the pass is deterministic. Each record carries
// its RNG stream identity and counter with it; a history's variates do not
// depend on its slot, which is what makes the permutation physics-free.
func (r *run) sortStep(res *Result) {
	t0 := r.enter(PhaseSort, true)
	n := r.bank.Len()
	if cap(r.sortKeys) < n {
		r.sortKeys = make([]uint64, n)
		r.sortPerm = make([]int32, n)
	}
	keys := r.sortKeys[:n]
	key := func(i int, st particle.Status, cx, cy int32) uint64 {
		k := uint64(retiredSlotKey)
		if st == particle.Alive {
			k = uint64(r.mesh.StorageIndex(int(cx), int(cy)))
		}
		return k<<32 | uint64(i)
	}
	if recs := r.bank.Records(); recs != nil {
		for i := range keys {
			p := &recs[i]
			keys[i] = key(i, p.Status, p.CellX, p.CellY)
		}
	} else {
		c, _ := r.bank.Columns()
		for i := range keys {
			keys[i] = key(i, c.Status[i], c.CellX[i], c.CellY[i])
		}
	}
	slices.Sort(keys)
	perm := r.sortPerm[:n]
	for i, k := range keys {
		perm[i] = int32(k & (1<<32 - 1))
	}
	r.bank.Permute(perm)
	r.leave(PhaseSort, true, t0, &res.Phases)
}
