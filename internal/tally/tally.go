// Package tally implements the energy-deposition tally of the neutral
// mini-app.
//
// The tally is a reduction into the mesh: every particle deposits energy
// into the cell it traverses, creating a write dependency that must be
// resolved atomically (paper §V-C). The paper finds the atomic
// read-modify-write at every facet encounter accounts for ~50% of Over
// Particles runtime on the Xeon, and studies privatising the tally per
// thread (§VI-F): it removes the atomic but multiplies the memory footprint
// by the thread count, and if tallies must be merged every timestep (the
// realistic coupled-physics case) the merge costs more than the atomics.
//
// Every implementation accumulates in one fixed-point arithmetic: a deposit
// is rounded to a whole number of ticks (Scale) and added as an int64.
// Integer addition is associative and commutative, so the cells a set of
// deposits leaves behind do not depend on how many workers made them, in
// what order, or through which implementation:
//
//   - Atomic: one shared mesh, one atomic add per deposit, held as blocks
//     that exist from the first deposit into them.
//   - Private: per-worker meshes merged on demand (no atomics).
//   - Null: discards deposits; differential timing against it isolates the
//     cost of tallying (how the harness reproduces the paper's 50%/22%
//     profile figures).
package tally

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
)

// ErrOverflow reports a tally that left the fixed-point range: a deposit
// outside [0, 2^63) ticks, a cell that reached 2^63 ticks, or a total that
// did. The accumulated values are meaningless from then on.
var ErrOverflow = errors.New("tally: fixed-point overflow")

// Scale fixes the size of a tick, 2^-k of the deposited unit. It is the one
// place a float64 becomes an accumulator integer and back.
type Scale struct {
	mul, inv float64 // 2^k and 2^-k
}

// ScaleFor returns the scale that maps bound below 2^61 ticks: the finest
// power-of-two tick that still leaves a sum of deposits two bits of headroom
// over bound before it overflows an int64. The solver passes the run's birth
// energy, which deposits can only exceed through weight-window roulette.
func ScaleFor(bound float64) Scale {
	_, e := math.Frexp(bound) // bound < 2^e
	k := min(61-e, 1022)      // 2^±k stay normal for the tiniest bounds
	return Scale{mul: math.Ldexp(1, k), inv: math.Ldexp(1, -k)}
}

// DefaultScale is the scale of a tally built without one (New): ticks of
// 2^-30 and room for a total of 2^33, for stand-alone use with deposits of
// order one.
var DefaultScale = ScaleFor(1 << 30)

// Ticks quantises a deposit, which must not be negative: v·2^k rounded to the
// nearest integer, halves up. Rounding rather than truncating keeps the
// expected error of a sum of deposits at zero. A v of 2^63 ticks or more, or
// NaN, returns math.MinInt64, which drives any cell it is added to negative.
func (s Scale) Ticks(v float64) int64 {
	x := float64(v * s.mul)
	switch {
	case x < 1<<52:
		return int64(x + 0.5)
	case x < 1<<63:
		return int64(x) // already a whole number
	}
	return math.MinInt64
}

// Value converts ticks back: exact up to 2^53 ticks, correctly rounded above.
func (s Scale) Value(ticks int64) float64 { return float64(ticks) * s.inv }

// Tally accumulates per-cell energy deposition. Add is called from worker
// goroutines identified by worker (0-based); implementations decide whether
// worker matters. Every other method is a step-boundary operation: the
// workers have joined.
type Tally interface {
	// Add deposits v, which must not be negative, into the flat cell index.
	Add(worker, cell int, v float64)
	// AddTicks deposits an amount that is already quantised — how a
	// checkpoint's cells return to a zeroed tally.
	AddTicks(cell int, ticks int64)
	// Ticks merges (if needed) and returns the per-cell totals in ticks, nil
	// for a tally that holds no data. The returned slice must not be mutated
	// by the caller, and is valid until the next call or deposit.
	Ticks() []int64
	// NonZero appends the cells that hold ticks to dst in ascending index
	// order — the sparse view a checkpoint stores. Unlike Ticks it never
	// builds a mesh-sized slice for a tally that does not keep one.
	NonZero(dst []Cell) []Cell
	// Total returns the sum over all cells, summed in ticks, or ErrOverflow.
	Total() (float64, error)
	// Reset zeroes the tally and sets the scale of the next run's deposits.
	Reset(s Scale)
}

// Mode selects a tally implementation.
type Mode int

const (
	// ModeAtomic uses atomic integer adds — the mini-app default.
	ModeAtomic Mode = iota
	// ModePrivate privatises the tally per worker and merges lazily.
	ModePrivate
	// ModeNull discards deposits (profiling baseline).
	ModeNull
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeAtomic:
		return "atomic"
	case ModePrivate:
		return "private"
	case ModeNull:
		return "null"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode converts a name to a Mode. The retired names get an error that
// says what replaced them.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "atomic":
		return ModeAtomic, nil
	case "private":
		return ModePrivate, nil
	case "null":
		return ModeNull, nil
	case "serial", "buffered":
		return 0, fmt.Errorf("tally: mode %q was removed: every tally now accumulates in order-independent fixed point, use \"atomic\"", s)
	default:
		return 0, fmt.Errorf("tally: unknown mode %q (want atomic, private or null)", s)
	}
}

// New constructs a tally of the given mode over cells cells for workers
// workers, at DefaultScale.
func New(mode Mode, cells, workers int) Tally { return NewScaled(mode, cells, workers, DefaultScale) }

// NewScaled is New at a chosen scale.
func NewScaled(mode Mode, cells, workers int, s Scale) Tally {
	switch mode {
	case ModeAtomic:
		return &Atomic{scale: s, n: cells, single: workers == 1, sums: make([]runningSum, max(workers, 1)),
			dir: make([]atomic.Pointer[block], (cells+blockCells-1)>>blockShift)}
	case ModePrivate:
		return NewPrivate(cells, workers, s)
	case ModeNull:
		return Null{}
	default:
		panic(fmt.Sprintf("tally: unknown mode %v", mode))
	}
}

// Cell is one entry of a tally's sparse view: a flat cell index and the
// ticks it holds.
type Cell struct {
	Index int
	Ticks int64
}

// tickBlock is how many cells appendNonZero tests at once: a tally is mostly
// zeros, and one OR over a block skips them eight at a time.
const tickBlock = 8

func blockIsZero(b *[tickBlock]int64) bool {
	return b[0]|b[1]|b[2]|b[3]|b[4]|b[5]|b[6]|b[7] == 0
}

// appendNonZero appends the non-zero entries of ticks, whose first element is
// cell base, to dst in ascending index order.
func appendNonZero(dst []Cell, base int, ticks []int64) []Cell {
	n := len(ticks) - len(ticks)%tickBlock
	for i := 0; i < n; i += tickBlock {
		if b := (*[tickBlock]int64)(ticks[i:]); !blockIsZero(b) {
			dst = appendNonZeroRun(dst, base+i, b[:])
		}
	}
	return appendNonZeroRun(dst, base+n, ticks[n:])
}

func appendNonZeroRun(dst []Cell, base int, ticks []int64) []Cell {
	for j, t := range ticks {
		if t != 0 {
			dst = append(dst, Cell{base + j, t})
		}
	}
	return dst
}

// tickSum adds non-negative ticks in 128 bits, so a total past the int64
// range is seen rather than wrapped.
type tickSum struct{ lo, hi uint64 }

func (s *tickSum) add(t int64) {
	var c uint64
	s.lo, c = bits.Add64(s.lo, uint64(t), 0)
	s.hi += c
}

// fold adds each worker's running sum into one.
func fold(sums []runningSum) (s tickSum) {
	for i := range sums {
		var c uint64
		s.lo, c = bits.Add64(s.lo, sums[i].lo, 0)
		s.hi += sums[i].hi + c
	}
	return s
}

// runningSum is one worker's sum of every tick it deposited, alone on its
// cache line. A deposit only adds to its cell, a cell driven past the int64
// range latches over, and a restore adds only cells in range, so while over
// is clear the sum over workers is the sum over cells: Total reads it in
// O(workers) instead of scanning the mesh.
type runningSum struct {
	tickSum
	_ [48]byte
}

// value converts the sum once, at the read. over is what the deposits
// already reported; a deposit of MinInt64 ticks reads as 2^63 or more and
// trips the range check by itself.
func (s tickSum) value(sc Scale, over bool) (float64, error) {
	if over || s.hi != 0 || int64(s.lo) < 0 {
		return 0, ErrOverflow
	}
	return sc.Value(int64(s.lo)), nil
}

// blockCells is how many cells one block of the atomic tally holds: 512, one
// 4 KB page of int64. Chosen by measurement (BENCH_pr26.json,
// block_size_table; sizes 64 to 4096). A smaller block holds fewer bytes —
// after a csp_op op 212 KB at 64 cells against 705 KB at 256 and above, where
// a block is a mesh row or more and deposits span the rows around the source
// — but a run pays for its directory whatever it deposits: at 64 cells
// stream_big allocates, zeroes and walks 295 KB of entries for a tally that
// stays empty, and setup_s and overhead_x read worse than at 512 in every
// pair on csp_op and stream_big. 4096 is within spread of 512 on both and
// triples what csp 1536² holds (6.3 MB against 2.1 MB of a dense 18.9 MB).
const (
	blockShift = 9
	blockCells = 1 << blockShift
)

type block = [blockCells]int64

// Atomic accumulates into one shared mesh with an atomic integer add per
// deposit (LOCK XADD) — the hardware atomicAdd the paper highlights on the
// P100, which never retries.
//
// The mesh is a directory of fixed-size blocks, and a block exists from the
// first deposit that lands in it: a nil entry reads as zeros. Deposition
// concentrates around the source (a run touches well under 1 % of a large
// mesh), so what construction, Total, NonZero and Reset cost follows what was
// deposited rather than what the mesh could hold. A deposit that finds no
// block allocates one and publishes it with a compare-and-swap; a worker that
// loses that race drops its copy and adds into the winner's, so no deposit is
// ever made into a block the directory does not hold.
type Atomic struct {
	scale Scale
	n     int // cells
	dir   []atomic.Pointer[block]
	// single marks a tally with exactly one writer (workers == 1): Add
	// skips the lock prefix for a plain add — the same integer sum.
	single bool
	// over latches the first deposit that drove a cell negative, which
	// later deposits could otherwise carry back into range.
	over  atomic.Bool
	sums  []runningSum // per worker; AddTicks adds to worker 0's
	ticks []int64      // backs Ticks
}

// Add deposits v into cell, which must be below the cell count. Beside the
// add it costs one pointer load, a branch only the first deposit into a
// block takes, and the worker's running sum.
func (a *Atomic) Add(worker, cell int, v float64) {
	t := a.scale.Ticks(v)
	a.sums[worker].add(t)
	b := a.dir[cell>>blockShift].Load()
	if b == nil {
		b = a.block(cell >> blockShift)
	}
	c := &b[cell&(blockCells-1)]
	var sum int64
	if a.single {
		sum = *c + t
		*c = sum
	} else {
		sum = atomic.AddInt64(c, t)
	}
	if sum < 0 {
		a.over.Store(true)
	}
}

// block returns the block at directory entry i, publishing a zeroed one if
// the entry is nil. A worker whose compare-and-swap finds the entry already
// filled lost the race to publish: it drops its copy and takes the winner's.
func (a *Atomic) block(i int) *block {
	if b := a.dir[i].Load(); b != nil {
		return b
	}
	b := new(block)
	if a.dir[i].CompareAndSwap(nil, b) {
		return b
	}
	return a.dir[i].Load()
}

// AddTicks deposits quantised ticks into cell.
func (a *Atomic) AddTicks(cell int, ticks int64) {
	a.block(cell >> blockShift)[cell&(blockCells-1)] += ticks
	a.sums[0].add(ticks)
}

// held calls f with each block the directory holds and the index of its
// first cell, in ascending order, cut to the cell count.
func (a *Atomic) held(f func(base int, ticks []int64)) {
	for i := range a.dir {
		if b := a.dir[i].Load(); b != nil {
			base := i << blockShift
			f(base, b[:min(blockCells, a.n-base)])
		}
	}
}

// Ticks returns the per-cell ticks as one dense slice, built at the call.
func (a *Atomic) Ticks() []int64 {
	if a.ticks == nil {
		a.ticks = make([]int64, a.n)
	} else {
		clear(a.ticks)
	}
	a.held(func(base int, ticks []int64) { copy(a.ticks[base:], ticks) })
	return a.ticks
}

// NonZero appends the cells that hold ticks.
func (a *Atomic) NonZero(dst []Cell) []Cell {
	a.held(func(base int, ticks []int64) { dst = appendNonZero(dst, base, ticks) })
	return dst
}

// Total returns the sum over cells, folded from the workers' running sums.
func (a *Atomic) Total() (float64, error) {
	return fold(a.sums).value(a.scale, a.over.Load())
}

// Reset zeroes the tally. The blocks it holds are cleared and kept, as a
// dense array would be: the next run of the same scene deposits into the same
// neighbourhood.
func (a *Atomic) Reset(s Scale) {
	a.held(func(_ int, ticks []int64) { clear(ticks) })
	clear(a.sums)
	a.over.Store(false)
	a.scale = s
}

// FootprintBytes reports the memory the directory and the blocks it holds
// occupy.
func (a *Atomic) FootprintBytes() int {
	held := 0
	a.held(func(int, []int64) { held++ })
	return 8*len(a.dir) + 8*blockCells*held
}

// Private keeps one full tally mesh per worker. Adds are contention-free;
// the cost moves to memory footprint (workers x mesh — the paper's KNL
// example grows 0.3 GB to 31 GB at 256 threads) and to the merge.
type Private struct {
	scale  Scale
	shards [][]int64
	// over[w] latches worker w's first deposit that drove a cell negative;
	// each worker writes only its own element.
	over   []bool
	sums   []runningSum // per worker; AddTicks adds to worker 0's
	merged []int64
}

// NewPrivate allocates a privatised tally for the given worker count.
func NewPrivate(cells, workers int, s Scale) *Private {
	workers = max(workers, 1)
	p := &Private{scale: s, shards: make([][]int64, workers),
		over: make([]bool, workers), sums: make([]runningSum, workers), merged: make([]int64, cells)}
	for w := range p.shards {
		p.shards[w] = make([]int64, cells)
	}
	return p
}

// Add deposits v into worker w's shard. Workers touch only their own shard,
// so no synchronisation is needed — that is the whole optimisation.
func (p *Private) Add(worker, cell int, v float64) {
	shard, t := p.shards[worker], p.scale.Ticks(v)
	p.sums[worker].add(t)
	sum := shard[cell] + t
	shard[cell] = sum
	if sum < 0 {
		p.over[worker] = true
	}
}

// AddTicks deposits quantised ticks into cell.
func (p *Private) AddTicks(cell int, ticks int64) {
	p.shards[0][cell] += ticks
	p.sums[0].add(ticks)
}

// Ticks folds all shards into the merged mesh and returns it. Merging is
// idempotent, and it is the cost the paper charges privatisation with: merged
// every timestep it was slower than atomics on every architecture (the solver
// times it under Config.MergePerStep).
func (p *Private) Ticks() []int64 {
	copy(p.merged, p.shards[0])
	for _, shard := range p.shards[1:] {
		for i, t := range shard {
			p.merged[i] += t
		}
	}
	return p.merged
}

// NonZero merges and appends the cells that hold ticks.
func (p *Private) NonZero(dst []Cell) []Cell { return appendNonZero(dst, 0, p.Ticks()) }

// Total returns the sum over the shards, folded from the workers' running
// sums: a total in range bounds every merged cell, so the merge cannot have
// wrapped unseen.
func (p *Private) Total() (float64, error) {
	return fold(p.sums).value(p.scale, slices.Contains(p.over, true))
}

// Reset zeroes every shard.
func (p *Private) Reset(s Scale) {
	for _, shard := range p.shards {
		clear(shard)
	}
	clear(p.over)
	clear(p.sums)
	p.scale = s
}

// Workers reports the shard count.
func (p *Private) Workers() int { return len(p.shards) }

// FootprintBytes reports the privatised tally's memory footprint — the
// paper's capacity concern (§VI-F).
func (p *Private) FootprintBytes() int { return len(p.shards) * len(p.merged) * 8 }

// Null discards all deposits. Timing a run with Null against the same run
// with Atomic isolates the tallying cost.
type Null struct{}

// Add discards v.
func (Null) Add(_, _ int, _ float64) {}

// AddTicks discards ticks.
func (Null) AddTicks(_ int, _ int64) {}

// Ticks returns nil: a null tally holds no data.
func (Null) Ticks() []int64 { return nil }

// NonZero appends nothing.
func (Null) NonZero(dst []Cell) []Cell { return dst }

// Total returns zero.
func (Null) Total() (float64, error) { return 0, nil }

// Reset does nothing.
func (Null) Reset(Scale) {}
