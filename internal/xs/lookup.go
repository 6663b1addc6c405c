package xs

// Cursor performs table lookups with a cached bin index — the paper's
// optimisation (§VI-A: 1.3x on csp): collisions change a particle's energy
// by a bounded factor, so the next lookup lands near the previous bin and a
// short linear walk from the cached index beats a binary search by staying
// in cache. The solver no longer searches this way (see gridIndex: the bin
// comes from the energy's bit pattern, with no cached state); Cursor stays
// as the paper's method for the harness text-search comparison, the
// benchmark's xs probe and the tests. A Cursor is not safe for concurrent
// use, mirroring the per-thread cached index of the C implementation.
type Cursor struct {
	table *Table
	idx   int
	// Steps counts linear-walk steps taken, for instrumentation: the
	// paper notes the optimisation "might suffer issues when larger jumps
	// in energy are observed".
	Steps uint64
	// Lookups counts calls, so Steps/Lookups is the mean walk length.
	Lookups uint64
}

// NewCursor returns a cursor over the table starting at the bottom bin.
func NewCursor(t *Table) *Cursor {
	return &Cursor{table: t}
}

// SetIndex installs a per-particle cached index (Over Events stores it in
// the particle record; Over Particles keeps it in a register).
func (c *Cursor) SetIndex(i int) {
	if i < 0 {
		i = 0
	}
	if max := len(c.table.energies) - 2; i > max {
		i = max
	}
	c.idx = i
}

// Index reports the currently cached bin index.
func (c *Cursor) Index() int { return c.idx }

// Seek positions the cursor with a binary search — the right tool when the
// cached index carries no information (a particle's first lookup). The
// search's bin probes are charged to Steps so instrumentation reflects the
// work done.
func (c *Cursor) Seek(e float64) {
	t := c.table
	e = t.clamp(e)
	lo, hi := 0, len(t.energies)-1
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if t.energies[mid] <= e {
			lo = mid
		} else {
			hi = mid
		}
		c.Steps++
	}
	c.idx = lo
}

// Lookup evaluates sigma(e) in barns, walking linearly from the cached bin.
func (c *Cursor) Lookup(e float64) float64 {
	t := c.table
	e = t.clamp(e)
	i := c.idx
	c.Lookups++
	for e < t.energies[i] {
		i--
		c.Steps++
	}
	for e >= t.energies[i+1] && i < len(t.energies)-2 {
		i++
		c.Steps++
	}
	c.idx = i
	return t.interpolate(e, i)
}

// MeanWalk reports the average linear-search walk length per lookup.
func (c *Cursor) MeanWalk() float64 {
	if c.Lookups == 0 {
		return 0
	}
	return float64(c.Steps) / float64(c.Lookups)
}
