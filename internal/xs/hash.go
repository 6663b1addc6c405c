package xs

import "math"

// gridIndex locates an energy's bin without a search: a bucket table indexed
// by the leading bits of the energy's float64 pattern. Positive doubles sort
// like their bit patterns, so Float64bits(e)>>shift is monotone in e and each
// value of it (a bucket) covers a contiguous energy range; first[bucket] is
// the bin holding the bucket's lowest energy, a lower bound for every energy
// in the bucket, and a short forward walk finishes the job. The shift is the
// coarsest that gives at least one bucket per bin (fewer than two per bin:
// ~4 KB at 1024 points). On a logarithmic grid the exponent bits are the
// logarithm, so a bucket spans at most two or three bins.
//
// The bin found is the unique i with energies[i] <= e < energies[i+1] — the
// one a binary search or a cached linear walk finds — so which search ran
// never shows in the physics (OpenMC's logarithmic grid hash, specialised to
// the float format).
type gridIndex struct {
	shift uint
	base  uint64  // Float64bits(energies[0]) >> shift: the pattern of bucket 0
	first []int32 // per bucket: the bin of its lowest energy
}

// newGridIndex builds the bucket table for a strictly increasing grid. A
// grid that starts at or below zero — NewTable allows one, the generated
// tables never have one — has no monotone bit pattern; it gets a single
// bucket, which degrades the lookup to a linear walk from bin 0.
func newGridIndex(energies []float64) gridIndex {
	bins := len(energies) - 1
	lo, hi := math.Float64bits(energies[0]), math.Float64bits(energies[bins])
	if !(energies[0] > 0) {
		return gridIndex{shift: 63, first: []int32{0}}
	}
	// Distinct positive doubles have distinct patterns, so shift 0 always
	// yields more buckets than bins and the loop ends; each step at most
	// doubles the count, which bounds the table below 2*bins+2 entries.
	shift := uint(63)
	for hi>>shift-lo>>shift+1 < uint64(bins) {
		shift--
	}
	g := gridIndex{shift: shift, base: lo >> shift, first: make([]int32, hi>>shift-lo>>shift+1)}
	i := 0
	for b := range g.first {
		low := (g.base + uint64(b)) << shift // lowest pattern in bucket b
		for i < bins-1 && math.Float64bits(energies[i+1]) <= low {
			i++
		}
		g.first[b] = int32(i)
	}
	return g
}

// find returns the bin of an energy already clamped to the table domain, and
// the number of forward steps walked from the bucket's first bin. The bucket
// index is clamped too: a NaN (which clamp passes through) lands in the last
// bucket and walks nowhere, and its interpolation is NaN, as with the other
// searches.
func (t *Table) find(e float64) (bin, steps int) {
	g := &t.grid
	// shift is at most 63; the mask lets the compiler drop its range check.
	b := min(math.Float64bits(e)>>(g.shift&63)-g.base, uint64(len(g.first)-1))
	first := int(g.first[b])
	bin = first
	for last := len(t.energies) - 2; bin < last && e >= t.energies[bin+1]; {
		bin++
	}
	return bin, bin - first
}

// Lookup evaluates sigma(e) in barns, locating the bin through the bucket
// table. Unlike a Cursor it carries no state, so it is safe for concurrent
// use.
func (t *Table) Lookup(e float64) float64 {
	e = t.clamp(e)
	i, _ := t.find(e)
	return t.interpolate(e, i)
}

// Pair bundles the two channels the mini-app considers. Build one with
// NewPair or GeneratePair: a Pair assembled as a literal works, but pays two
// bin searches per lookup even when its tables share a grid.
type Pair struct {
	Capture *Table
	Scatter *Table
	// shared records that both tables sit on one energy grid, so one bin
	// search serves both interpolations. Decided once, at construction.
	shared bool
}

// NewPair bundles a capture and a scatter table, detecting whether they share
// an energy grid.
func NewPair(capture, scatter *Table) Pair {
	shared := len(capture.energies) == len(scatter.energies)
	for i := 0; shared && i < len(capture.energies); i++ {
		shared = capture.energies[i] == scatter.energies[i]
	}
	return Pair{Capture: capture, Scatter: scatter, shared: shared}
}

// Lookup evaluates both microscopic cross sections at energy e, in barns. It
// also returns the capture table's bin and the forward steps the search
// walked past its bucket's first bin, for instrumentation. On a shared grid
// that is one clamp and one search for both channels.
func (p *Pair) Lookup(e float64) (sigmaA, sigmaS float64, bin, steps int) {
	c, s := p.Capture, p.Scatter
	if p.shared {
		e = c.clamp(e)
		bin, steps = c.find(e)
		return c.interpolate(e, bin), s.interpolate(e, bin), bin, steps
	}
	ec, es := c.clamp(e), s.clamp(e)
	bin, steps = c.find(ec)
	sbin, ssteps := s.find(es)
	return c.interpolate(ec, bin), s.interpolate(es, sbin), bin, steps + ssteps
}
