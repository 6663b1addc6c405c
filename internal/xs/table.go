// Package xs implements the cross-sectional data substrate of the neutral
// mini-app.
//
// The paper (§IV-D) generates two dummy microscopic cross-section tables —
// capture and elastic scatter for a single material — sized to be
// representative of real nuclear data, and looks them up with a linear
// interpolation after locating the particle's energy bin. The paper's bin
// search caches the previous lookup index so a short linear walk usually
// replaces a binary search (1.3x on csp, §VI-A; kept here as Cursor); the
// solver locates the bin through a bucket table over the energy's bit
// pattern instead (hash.go) — the same bin, found in about half a step, once
// for both tables of a Pair. Macroscopic cross sections scale the
// microscopic values by the number density of the cell the particle
// occupies, which introduces the particle→mesh dependency at the heart of
// the study.
package xs

import (
	"errors"
	"fmt"
	"math"
)

// Kind selects which reaction channel a table describes.
type Kind int

const (
	// Capture is radiative capture / absorption: the particle's history
	// ends (analogue) or its weight is reduced (implicit capture).
	Capture Kind = iota
	// ElasticScatter conserves kinetic energy in the CM frame and
	// redirects the particle, dampening its lab energy.
	ElasticScatter
)

// String returns the channel name.
func (k Kind) String() string {
	switch k {
	case Capture:
		return "capture"
	case ElasticScatter:
		return "elastic-scatter"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Table is a microscopic cross-section table: sigma (barns) on an
// energy grid (eV), strictly increasing in energy. Lookups interpolate
// linearly between grid points, as in the mini-app.
type Table struct {
	kind     Kind
	energies []float64 // eV, strictly increasing
	sigmas   []float64 // barns
	grid     gridIndex // bucket table over energies, see hash.go
}

// NewTable builds a table from parallel energy/sigma slices. The energy grid
// must be strictly increasing and hold at least two points, and every sigma
// must be finite and non-negative.
func NewTable(kind Kind, energies, sigmas []float64) (*Table, error) {
	if len(energies) != len(sigmas) {
		return nil, fmt.Errorf("xs: %d energies vs %d sigmas", len(energies), len(sigmas))
	}
	if len(energies) < 2 {
		return nil, errors.New("xs: table needs at least two points")
	}
	for i, e := range energies {
		if math.IsNaN(e) || (i > 0 && e <= energies[i-1]) {
			return nil, fmt.Errorf("xs: energy grid not strictly increasing at index %d", i)
		}
		if math.IsNaN(sigmas[i]) || math.IsInf(sigmas[i], 0) || sigmas[i] < 0 {
			return nil, fmt.Errorf("xs: invalid sigma %v at index %d", sigmas[i], i)
		}
	}
	return &Table{kind: kind, energies: energies, sigmas: sigmas, grid: newGridIndex(energies)}, nil
}

// Kind reports the reaction channel the table describes.
func (t *Table) Kind() Kind { return t.kind }

// Len reports the number of grid points.
func (t *Table) Len() int { return len(t.energies) }

// MinEnergy and MaxEnergy report the table's energy domain in eV.
func (t *Table) MinEnergy() float64 { return t.energies[0] }

// MaxEnergy reports the top of the energy grid in eV.
func (t *Table) MaxEnergy() float64 { return t.energies[len(t.energies)-1] }

// interpolate evaluates the table at energy e given the bin index i such
// that energies[i] <= e < energies[i+1].
func (t *Table) interpolate(e float64, i int) float64 {
	e0, e1 := t.energies[i], t.energies[i+1]
	s0, s1 := t.sigmas[i], t.sigmas[i+1]
	return s0 + (s1-s0)*(e-e0)/(e1-e0)
}

// clamp maps an energy into the table domain; energies outside the grid
// evaluate at the nearest endpoint.
func (t *Table) clamp(e float64) float64 {
	if e < t.energies[0] {
		return t.energies[0]
	}
	if e > t.energies[len(t.energies)-1] {
		return t.energies[len(t.energies)-1]
	}
	return e
}

// LookupBinary evaluates sigma(e) in barns using a binary search for the
// energy bin. It is the reference the bucket lookup and the cached linear
// search are tested and measured against.
func (t *Table) LookupBinary(e float64) float64 {
	e = t.clamp(e)
	return t.interpolate(e, t.binBinary(e))
}

// binBinary returns the bin of a clamped energy by binary search.
func (t *Table) binBinary(e float64) int {
	lo, hi := 0, len(t.energies)-1
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if t.energies[mid] <= e {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
