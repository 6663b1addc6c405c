package tally

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func newAtomic(cells, workers int) *Atomic {
	return New(ModeAtomic, cells, workers).(*Atomic)
}

// mustTotal reads a total that is expected to be in range.
func mustTotal(t *testing.T, tl Tally) float64 {
	t.Helper()
	total, err := tl.Total()
	if err != nil {
		t.Fatalf("%s: Total: %v", tl.Name(), err)
	}
	return total
}

func TestModesBasicAccumulation(t *testing.T) {
	for _, mode := range []Mode{ModeAtomic, ModePrivate} {
		tl := New(mode, 10, 4)
		tl.Add(0, 3, 1.5)
		tl.Add(1, 3, 2.5)
		tl.Add(2, 7, 4.0)
		cells := tl.Cells()
		if cells[3] != 4.0 || cells[7] != 4.0 {
			t.Errorf("%v: cells = %v", mode, cells)
		}
		if got := mustTotal(t, tl); got != 8.0 {
			t.Errorf("%v: total = %v, want 8", mode, got)
		}
		tl.Reset(DefaultScale)
		if mustTotal(t, tl) != 0 {
			t.Errorf("%v: reset did not zero", mode)
		}
	}
}

func TestNullDiscards(t *testing.T) {
	tl := New(ModeNull, 10, 4)
	tl.Add(0, 3, 100)
	tl.AddTicks(3, 100)
	if mustTotal(t, tl) != 0 || tl.Cells() != nil || tl.Ticks() != nil {
		t.Fatal("null tally retained data")
	}
}

// TestAtomicConcurrentSum hammers a small tally — and a single cell, where
// every add contends — from many goroutines and checks the result is exact:
// the atomic add must never lose an update, which is the whole point of the
// atomic tally.
func TestAtomicConcurrentSum(t *testing.T) {
	const (
		workers = 16
		adds    = 20000
	)
	for _, cells := range []int{8, 1} {
		a := newAtomic(cells, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < adds; i++ {
					a.Add(w, i%cells, 1.0)
				}
			}(w)
		}
		wg.Wait()
		want := float64(workers * adds)
		if got := mustTotal(t, a); got != want {
			t.Fatalf("%d cells: atomic total = %v, want %v (lost updates)", cells, got, want)
		}
	}
}

// TestPrivateConcurrentSum does the same for the privatised tally, which
// relies on shard separation instead of atomics.
func TestPrivateConcurrentSum(t *testing.T) {
	const (
		workers = 16
		adds    = 20000
		cells   = 8
	)
	p := NewPrivate(cells, workers, DefaultScale)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				p.Add(w, i%cells, 1.0)
			}
		}(w)
	}
	wg.Wait()
	want := float64(workers * adds)
	if got := mustTotal(t, p); got != want {
		t.Fatalf("private total = %v, want %v", got, want)
	}
}

// deposit is one generated tally deposit: a cell and a non-negative amount of
// up to about a million units with a random fraction.
type deposit struct {
	cell int
	v    float64
}

const propertyCells = 16

func randomDeposits(rng *rand.Rand) []deposit {
	ds := make([]deposit, rng.Intn(200))
	for i := range ds {
		ds[i] = deposit{rng.Intn(propertyCells), rng.Float64() * math.Ldexp(1, rng.Intn(21))}
	}
	return ds
}

// TestAtomicMatchesSerial: the shared, lock-prefixed path of the atomic tally
// leaves the same ticks as its single-writer path (the plain add that used to
// be the serial tally), and both are the float sum of the deposits to within
// half a tick per deposit.
func TestAtomicMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		ds := randomDeposits(rand.New(rand.NewSource(seed)))
		shared, single := newAtomic(propertyCells, 4), newAtomic(propertyCells, 1)
		ref := make([]float64, propertyCells)
		for i, d := range ds {
			shared.Add(i%4, d.cell, d.v)
			single.Add(0, d.cell, d.v)
			ref[d.cell] += d.v
		}
		if !slices.Equal(shared.Ticks(), single.Ticks()) {
			return false
		}
		tol := float64(len(ds)) * DefaultScale.Value(1)
		for i, v := range shared.Cells() {
			if math.Abs(v-ref[i]) > tol+1e-12*ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDepositOrderInvariance is the contract the layers above build on: the
// cells a multiset of deposits leaves behind depend on nothing but the
// multiset. Any permutation of the deposits, split in any way across any
// number of workers, through either implementation, gives identical ticks,
// cells and total.
func TestDepositOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDeposits(rng)
		ref := newAtomic(propertyCells, 1)
		for _, d := range ds {
			ref.Add(0, d.cell, d.v)
		}
		refTotal, err := ref.Total()
		if err != nil {
			return false
		}
		for _, mode := range []Mode{ModeAtomic, ModePrivate} {
			workers := 1 + rng.Intn(8)
			tl := New(mode, propertyCells, workers)
			for _, i := range rng.Perm(len(ds)) {
				tl.Add(rng.Intn(workers), ds[i].cell, ds[i].v)
			}
			total, err := tl.Total()
			if err != nil || total != refTotal ||
				!slices.Equal(tl.Ticks(), ref.Ticks()) || !slices.Equal(tl.Cells(), ref.Cells()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTickRoundTrip: a tick count survives the conversion to a value and
// back exactly wherever a float64 can hold it, at any scale, and a value
// rounds to the nearest tick.
func TestTickRoundTrip(t *testing.T) {
	for _, bound := range []float64{1e-280, 3e-7, 1, 1 << 30, 1.7e11, 1e300} {
		s := ScaleFor(bound)
		if got := s.Ticks(bound); got < 1<<60 || got >= 1<<61 {
			t.Errorf("bound %g maps to %d ticks, want [2^60, 2^61)", bound, got)
		}
		for _, ticks := range []int64{0, 1, 2, 1<<53 - 1, 1 << 53, 1<<53 + 2, 1 << 62, math.MaxInt64 - 1023} {
			if got := s.Ticks(s.Value(ticks)); got != ticks {
				t.Errorf("bound %g: %d ticks came back as %d", bound, ticks, got)
			}
		}
	}
	s := ScaleFor(1) // one unit is 2^60 ticks
	for _, c := range []struct {
		v    float64
		want int64
	}{{0x1p-60, 1}, {0x1.8p-61, 1}, {0x1p-61, 1}, {0x1.cp-62, 0}, {0x1.8p-60, 2}, {0x1.4p-60, 1}, {1, 1 << 60}} {
		if got := s.Ticks(c.v); got != c.want {
			t.Errorf("Ticks(%x) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestOverflow: the error fires when a cell or the total reaches 2^63 ticks —
// four to eight times the bound the scale was built for — and not at the
// bound or anywhere in the documented headroom; once it has fired it stays,
// even if later deposits wrap the cell back into range.
func TestOverflow(t *testing.T) {
	s := ScaleFor(1) // one unit is 2^60 ticks: the eighth reaches 2^63
	for _, mode := range []Mode{ModeAtomic, ModePrivate} {
		for _, c := range []struct {
			name    string
			deposit func(tl Tally)
			want    float64 // the total; negative when ErrOverflow is expected
		}{
			{"bound", func(tl Tally) { tl.Add(0, 0, 1) }, 1},
			{"headroom", func(tl Tally) { tl.Add(0, 0, 3.999) }, 3.999},
			{"one cell below 2^63", func(tl Tally) {
				for i := 0; i < 7; i++ {
					tl.Add(i%3, 0, 1)
				}
				tl.Add(0, 0, 1-0x1p-52)
			}, 8},
			{"one cell at 2^63", func(tl Tally) {
				for i := 0; i < 8; i++ {
					tl.Add(i%3, 0, 1)
				}
			}, -1},
			{"one cell wrapped past 2^64", func(tl Tally) {
				for i := 0; i < 17; i++ {
					tl.Add(i%3, 0, 1)
				}
			}, -1},
			{"total at 2^63, no cell near it", func(tl Tally) {
				for i := 0; i < 8; i++ {
					tl.Add(i%3, i, 1)
				}
			}, -1},
			{"total below 2^63", func(tl Tally) {
				for i := 0; i < 7; i++ {
					tl.Add(i%3, i, 1)
				}
			}, 7},
			{"one deposit of 2^63 ticks", func(tl Tally) { tl.Add(0, 0, 8) }, -1},
			{"NaN", func(tl Tally) { tl.Add(0, 0, math.NaN()) }, -1},
			{"restored cells", func(tl Tally) {
				tl.AddTicks(0, 1<<62)
				tl.AddTicks(1, 1<<62)
			}, -1},
		} {
			tl := NewScaled(mode, 10, 3, s)
			c.deposit(tl)
			got, err := tl.Total()
			switch {
			case c.want < 0 && !errors.Is(err, ErrOverflow):
				t.Errorf("%v/%s: Total = %v, %v; want ErrOverflow", mode, c.name, got, err)
			case c.want >= 0 && (err != nil || got != c.want):
				t.Errorf("%v/%s: Total = %v, %v; want %v", mode, c.name, got, err, c.want)
			}
			tl.Reset(s)
			if got, err := tl.Total(); got != 0 || err != nil {
				t.Errorf("%v/%s: after Reset Total = %v, %v", mode, c.name, got, err)
			}
		}
	}
}

func TestPrivateMergeIdempotent(t *testing.T) {
	p := NewPrivate(4, 3, DefaultScale)
	p.Add(0, 0, 1)
	p.Add(1, 0, 2)
	p.Add(2, 3, 5)
	first := slices.Clone(p.Cells())
	if second := p.Cells(); !slices.Equal(first, second) {
		t.Fatalf("merge not idempotent: %v vs %v", first, second)
	}
	p.Add(0, 1, 9) // dirty again
	if got := p.Cells()[1]; got != 9 {
		t.Fatalf("merge after new add = %v, want 9", got)
	}
}

func TestPrivateFootprintScalesWithWorkers(t *testing.T) {
	cells := 1000
	p1 := NewPrivate(cells, 1, DefaultScale)
	p256 := NewPrivate(cells, 256, DefaultScale)
	if p256.FootprintBytes() != 256*p1.FootprintBytes() {
		t.Fatalf("footprint %d vs %d: want 256x", p256.FootprintBytes(), p1.FootprintBytes())
	}
	// The paper's example: 0.3 GB serial tally grows to ~31 GB at 256
	// threads (a 4000^2 mesh of 8-byte cells is 0.128 GB; with the rest of
	// the mesh fields ~0.3 GB; scaled by 256 either way exceeds the 16 GB
	// MCDRAM).
	serialGB := float64(NewPrivate(4000*4000, 1, DefaultScale).FootprintBytes()) / 1e9
	knlGB := float64(NewPrivate(4000*4000, 256, DefaultScale).FootprintBytes()) / 1e9
	if knlGB < 16 {
		t.Fatalf("KNL privatised tally = %.1f GB, expected to exceed 16 GB MCDRAM", knlGB)
	}
	if serialGB > 1 {
		t.Fatalf("serial tally = %.1f GB, expected well under 1 GB", serialGB)
	}
}

func TestWorkersReported(t *testing.T) {
	if w := NewPrivate(4, 7, DefaultScale).Workers(); w != 7 {
		t.Fatalf("Workers() = %d, want 7", w)
	}
	if w := NewPrivate(4, 0, DefaultScale).Workers(); w != 1 {
		t.Fatalf("Workers() with 0 requested = %d, want clamped to 1", w)
	}
}

func TestParseMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Mode
	}{{"atomic", ModeAtomic}, {"private", ModePrivate}, {"null", ModeNull}} {
		got, err := ParseMode(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseMode(%q) = %v, %v", c.in, got, err)
		}
		if got.String() != c.in {
			t.Errorf("String round trip failed for %q", c.in)
		}
	}
	if _, err := ParseMode("nope"); err == nil {
		t.Error("bogus mode accepted")
	}
	// The retired modes fail, and the error names the replacement.
	for _, retired := range []string{"serial", "buffered"} {
		if _, err := ParseMode(retired); err == nil || !strings.Contains(err.Error(), `"atomic"`) {
			t.Errorf("ParseMode(%q) = %v, want an error naming \"atomic\"", retired, err)
		}
	}
}

func BenchmarkAtomicAddUncontended(b *testing.B) {
	a := newAtomic(1<<16, 2)
	for i := 0; i < b.N; i++ {
		a.Add(0, i&0xFFFF, 1.0)
	}
}

func BenchmarkAtomicAddSingleWriter(b *testing.B) {
	a := newAtomic(1<<16, 1)
	for i := 0; i < b.N; i++ {
		a.Add(0, i&0xFFFF, 1.0)
	}
}

func BenchmarkAtomicAddContended(b *testing.B) {
	a := newAtomic(4, 2)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			a.Add(0, i&3, 1.0)
			i++
		}
	})
}

func BenchmarkPrivateAdd(b *testing.B) {
	p := NewPrivate(1<<16, 1, DefaultScale)
	for i := 0; i < b.N; i++ {
		p.Add(0, i&0xFFFF, 1.0)
	}
}

// TestSparseViewsMatchCells pins the reads that skip the dense view to it,
// for every implementation: Total is the sum of Ticks converted once (the
// sum skips zero blocks), Cells is Ticks converted cell by cell, and
// NonZero lists exactly the non-zero ticks in ascending order. The sizes
// straddle the eight-word blocks; the deposits leave empty blocks, full blocks
// and a ragged tail.
func TestSparseViewsMatchCells(t *testing.T) {
	for _, cells := range []int{1, 7, 8, 9, 64, 1000} {
		for _, mode := range []Mode{ModeAtomic, ModePrivate, ModeNull} {
			for _, workers := range []int{1, 3} {
				tl := New(mode, cells, workers)
				if got := tl.NonZero(nil); len(got) != 0 || mustTotal(t, tl) != 0 {
					t.Fatalf("%v/%d: fresh tally reads %v / %v", mode, cells, got, mustTotal(t, tl))
				}
				x := uint64(cells)*2654435761 + 1
				for i := 0; i < 3*cells; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					cell := int(x % uint64(cells))
					if cell%16 >= 11 && cells > 16 {
						continue // leave whole blocks empty
					}
					tl.Add(i%workers, cell, float64(x>>40)*0x1p-20+1e-9)
				}
				ticks, dense := tl.Ticks(), tl.Cells()
				var sum int64
				var wantNZ []Cell
				for i, v := range ticks {
					sum += v
					if v != 0 {
						wantNZ = append(wantNZ, Cell{i, v})
					}
					if dense[i] != DefaultScale.Value(v) {
						t.Fatalf("%v/%d/%d: Cells[%d] = %v, ticks say %v", mode, cells, workers, i, dense[i], DefaultScale.Value(v))
					}
				}
				if got, want := mustTotal(t, tl), DefaultScale.Value(sum); got != want {
					t.Errorf("%v/%d/%d: Total %v, sum of Ticks %v", mode, cells, workers, got, want)
				}
				prefix := []Cell{{-1, -1}}
				got := tl.NonZero(prefix)
				if len(got) != 1+len(wantNZ) || got[0] != prefix[0] {
					t.Fatalf("%v/%d/%d: NonZero returned %d entries after the prefix, want %d", mode, cells, workers, len(got)-1, len(wantNZ))
				}
				if !slices.Equal(got[1:], wantNZ) {
					t.Fatalf("%v/%d/%d: NonZero = %+v, want %+v", mode, cells, workers, got[1:], wantNZ)
				}
			}
		}
	}
}

// TestAtomicCellsAllocatesOnDemand: a dense view's backing array exists only
// once someone has asked for it.
func TestAtomicCellsAllocatesOnDemand(t *testing.T) {
	a := newAtomic(100, 1)
	a.Add(0, 3, 1.5)
	if mustTotal(t, a) != 1.5 || len(a.NonZero(nil)) != 1 || a.values != nil || a.ticks != nil {
		t.Fatal("Total/NonZero must not materialise a dense view")
	}
	if c := a.Cells(); len(c) != 100 || c[3] != 1.5 {
		t.Fatalf("Cells = %v", c[:5])
	}
}

// TestBlockedMatchesDenseModel drives the atomic tally's directory of blocks
// with random step sequences — a batch of deposits split across the workers
// and made concurrently, restored ticks, a Reset at the same or a new scale —
// and after every step compares each read with a dense reference model: one
// int64 per cell, added to serially. The cell counts leave a ragged last
// block, fit inside one block, and span many.
func TestBlockedMatchesDenseModel(t *testing.T) {
	for _, cells := range []int{1, blockCells - 1, blockCells, blockCells + 1, 3*blockCells + 17, 40*blockCells - 5} {
		for _, workers := range []int{1, 2, 8} {
			rng := rand.New(rand.NewSource(int64(cells*31 + workers)))
			scale := DefaultScale
			a := NewScaled(ModeAtomic, cells, workers, scale).(*Atomic)
			model := make([]int64, cells)
			// Deposits cluster, as a source region does: most blocks of the
			// larger meshes stay unallocated.
			pick := func() int {
				if rng.Intn(4) == 0 {
					return rng.Intn(cells)
				}
				return min(cells-1, cells/3+rng.Intn(1+cells/16))
			}
			for step := 0; step < 60; step++ {
				switch op := rng.Intn(10); {
				case op < 6:
					batch := make([][]deposit, workers)
					for i := rng.Intn(400); i > 0; i-- {
						d := deposit{pick(), rng.Float64() * math.Ldexp(1, rng.Intn(11))}
						w := rng.Intn(workers)
						batch[w] = append(batch[w], d)
						model[d.cell] += scale.Ticks(d.v)
					}
					var wg sync.WaitGroup
					for w := range batch {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for _, d := range batch[w] {
								a.Add(w, d.cell, d.v)
							}
						}()
					}
					wg.Wait()
				case op < 8:
					for i := rng.Intn(20); i > 0; i-- {
						cell, ticks := pick(), rng.Int63n(1<<40)
						a.AddTicks(cell, ticks)
						model[cell] += ticks
					}
				default:
					if rng.Intn(2) == 0 {
						scale = ScaleFor(math.Ldexp(1, 30+rng.Intn(20)))
					}
					a.Reset(scale)
					clear(model)
				}

				var sum int64
				var sparse []Cell
				for i, v := range model {
					sum += v
					if v != 0 {
						sparse = append(sparse, Cell{i, v})
					}
				}
				if got := mustTotal(t, a); got != scale.Value(sum) {
					t.Fatalf("%d cells, %d workers, step %d: Total %v, model %v", cells, workers, step, got, scale.Value(sum))
				}
				if got := a.NonZero(nil); !slices.Equal(got, sparse) {
					t.Fatalf("%d cells, %d workers, step %d: NonZero has %d entries, model %d", cells, workers, step, len(got), len(sparse))
				}
				if !slices.Equal(a.Ticks(), model) {
					t.Fatalf("%d cells, %d workers, step %d: Ticks differ from the model", cells, workers, step)
				}
				dense := a.Cells()
				if len(dense) != cells {
					t.Fatalf("%d cells: Cells has %d", cells, len(dense))
				}
				for i, v := range model {
					if dense[i] != scale.Value(v) {
						t.Fatalf("%d cells, %d workers, step %d: Cells[%d] = %v, model %v", cells, workers, step, i, dense[i], scale.Value(v))
					}
				}
			}
		}
	}
}

// TestFirstDepositRace: workers whose first deposits land in the same fresh
// blocks at the same moment each find the block unallocated; one publishes
// its copy and the others must add into that one. No deposit may be lost to a
// dropped copy, and a block is held exactly once.
func TestFirstDepositRace(t *testing.T) {
	const (
		workers = 8
		blocks  = 64
		rounds  = 50
	)
	for round := 0; round < rounds; round++ {
		a := newAtomic(blocks*blockCells, workers)
		var start, wg sync.WaitGroup
		start.Add(1)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				for b := 0; b < blocks; b++ {
					a.Add(w, b*blockCells+w, 1)   // a cell of its own
					a.Add(w, b*blockCells+100, 1) // and one every worker hits
				}
			}()
		}
		start.Done()
		wg.Wait()
		if got := mustTotal(t, a); got != 2*workers*blocks {
			t.Fatalf("round %d: total %v, want %d (a deposit went into a dropped block)", round, got, 2*workers*blocks)
		}
		ticks := a.Ticks()
		for b := 0; b < blocks; b++ {
			if got := DefaultScale.Value(ticks[b*blockCells+100]); got != workers {
				t.Fatalf("round %d: shared cell of block %d holds %v, want %d", round, b, got, workers)
			}
		}
		if got, want := a.FootprintBytes(), 8*blocks+8*blockCells*blocks; got != want {
			t.Fatalf("round %d: footprint %d bytes, want %d", round, got, want)
		}
	}
}

// TestFootprintFollowsDeposits: a fresh tally holds its directory and nothing
// else, a deposit costs one block, and Reset keeps what was allocated.
func TestFootprintFollowsDeposits(t *testing.T) {
	const cells = 1000 * blockCells
	a := newAtomic(cells, 2)
	if got := a.FootprintBytes(); got != 8*1000 {
		t.Fatalf("fresh tally holds %d bytes, want the %d of its directory", got, 8*1000)
	}
	a.Add(0, 5, 1)
	a.Add(1, 7, 1)
	a.Add(0, cells-1, 1)
	if got, want := a.FootprintBytes(), 8*1000+2*8*blockCells; got != want {
		t.Fatalf("after deposits into two blocks: %d bytes, want %d", got, want)
	}
	a.Reset(DefaultScale)
	if got, want := a.FootprintBytes(), 8*1000+2*8*blockCells; got != want || mustTotal(t, a) != 0 {
		t.Fatalf("after Reset: %d bytes (want %d kept), total %v", got, want, mustTotal(t, a))
	}
}
