package tally

// Buffered interposes per-worker write-combining deposit buffers in front of
// a shared base tally. The paper finds the per-facet atomic read-modify-write
// accounts for ~50% of Over Particles runtime on the Xeon (§V-C), and that
// deposition concentrates in a few hot cells (scatter especially), so the
// same cell is hit over and over from every worker. A Buffered tally absorbs
// those repeats locally: each worker owns a small direct-mapped cell→sum
// accumulator with a last-cell fast path, and only evictions and the final
// flush touch the shared mesh. The base tally sees one combined write per
// (worker, cell, residency) instead of one per deposit, cutting CAS traffic
// by the coalescing factor while leaving per-cell totals equal up to
// floating-point reassociation.
//
// Concurrency contract: Add and FlushWorker are per-worker — worker w's
// buffer is touched only by calls carrying worker index w, so concurrent
// calls for distinct workers need no synchronisation beyond a thread-safe
// base. Flush, Cells, Total, NonZero and Reset drain every buffer and must not run
// concurrently with Add (the solver calls them only at step boundaries, the
// same contract Private.Merge already has).
type Buffered struct {
	base Tally
	bufs []depositBuffer
}

// bufferedSlots is the direct-mapped accumulator size per worker. 64 slots
// (one 256-byte cell-index array plus one 512-byte sum array) sit comfortably
// in L1 while covering far more distinct cells than a worker's chunk touches
// between evictions on the paper's problems.
const bufferedSlots = 64

// depositBuffer is one worker's private accumulator: a last-cell register
// (consecutive deposits into one cell are the dominant pattern — a particle
// depositing along a track, or a chunk of neighbouring particles) backed by
// a direct-mapped table for the cells the fast path misses.
type depositBuffer struct {
	lastCell int32
	lastSum  float64
	cells    [bufferedSlots]int32
	sums     [bufferedSlots]float64
	// deposits counts Add calls; writes counts batches pushed to the base
	// tally. Their ratio is the write-combining factor.
	deposits uint64
	writes   uint64
}

func (d *depositBuffer) clear() {
	d.lastCell = -1
	d.lastSum = 0
	for i := range d.cells {
		d.cells[i] = -1
		d.sums[i] = 0
	}
}

// NewBuffered wraps base with per-worker deposit buffers for the given
// worker count.
func NewBuffered(base Tally, workers int) *Buffered {
	if workers < 1 {
		workers = 1
	}
	b := &Buffered{base: base, bufs: make([]depositBuffer, workers)}
	for w := range b.bufs {
		b.bufs[w].clear()
	}
	return b
}

// slotOf maps a cell index to its direct-mapped slot (Knuth multiplicative
// hash, high bits).
func slotOf(cell int32) int {
	return int(uint32(cell) * 2654435761 >> (32 - 6)) // 2^6 == bufferedSlots
}

// Add coalesces v into worker's buffer; only an eviction reaches the base.
// A zero deposit is absorbed outright — it is the additive identity, so
// dropping it leaves every cell bit-identical (no cell ever holds -0).
func (b *Buffered) Add(worker, cell int, v float64) {
	d := &b.bufs[worker]
	d.deposits++
	if v == 0 {
		return
	}
	c := int32(cell)
	if c == d.lastCell {
		d.lastSum += v
		return
	}
	if d.lastCell >= 0 {
		// Demote the previous fast-path cell into the table.
		b.table(d, worker, d.lastCell, d.lastSum)
	}
	d.lastCell, d.lastSum = c, v
}

// table accumulates (cell, v) into d's direct-mapped table, evicting the
// resident cell to the base tally on conflict — the write-combining flush.
func (b *Buffered) table(d *depositBuffer, worker int, cell int32, v float64) {
	s := slotOf(cell)
	switch d.cells[s] {
	case cell:
		d.sums[s] += v
	case -1:
		d.cells[s], d.sums[s] = cell, v
	default:
		b.base.Add(worker, int(d.cells[s]), d.sums[s])
		d.writes++
		d.cells[s], d.sums[s] = cell, v
	}
}

// FlushWorker drains one worker's buffer into the base tally. It is safe to
// call concurrently for distinct workers (the base must be thread-safe), so
// workers can drain their own buffers in parallel at a step boundary.
func (b *Buffered) FlushWorker(worker int) {
	d := &b.bufs[worker]
	if d.lastCell >= 0 {
		b.base.Add(worker, int(d.lastCell), d.lastSum)
		d.writes++
		d.lastCell, d.lastSum = -1, 0
	}
	for i, c := range d.cells {
		if c >= 0 {
			b.base.Add(worker, int(c), d.sums[i])
			d.writes++
			d.cells[i], d.sums[i] = -1, 0
		}
	}
}

// Flush drains every worker's buffer into the base tally.
func (b *Buffered) Flush() {
	for w := range b.bufs {
		b.FlushWorker(w)
	}
}

// Cells flushes and returns the base tally's per-cell totals.
func (b *Buffered) Cells() []float64 {
	b.Flush()
	return b.base.Cells()
}

// Total flushes and returns the sum over cells.
func (b *Buffered) Total() float64 {
	b.Flush()
	return b.base.Total()
}

// NonZero flushes and appends the base tally's non-zero cells to dst.
func (b *Buffered) NonZero(dst []Cell) []Cell {
	b.Flush()
	return b.base.NonZero(dst)
}

// Reset discards buffered deposits, zeroes the base tally and the
// coalescing statistics.
func (b *Buffered) Reset() {
	for w := range b.bufs {
		d := &b.bufs[w]
		d.clear()
		d.deposits, d.writes = 0, 0
	}
	b.base.Reset()
}

// Name identifies the implementation.
func (b *Buffered) Name() string { return "buffered" }

// Base exposes the wrapped tally (e.g. to read CAS-conflict counts off an
// atomic base).
func (b *Buffered) Base() Tally { return b.base }

// Workers reports the buffer count.
func (b *Buffered) Workers() int { return len(b.bufs) }

// Deposits reports Add calls across all workers.
func (b *Buffered) Deposits() uint64 {
	var n uint64
	for w := range b.bufs {
		n += b.bufs[w].deposits
	}
	return n
}

// BaseWrites reports the batches that reached the base tally. The
// write-combining factor is Deposits()/BaseWrites().
func (b *Buffered) BaseWrites() uint64 {
	var n uint64
	for w := range b.bufs {
		n += b.bufs[w].writes
	}
	return n
}
