package tally

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestModesBasicAccumulation(t *testing.T) {
	for _, mode := range []Mode{ModeAtomic, ModePrivate, ModeSerial} {
		tl := New(mode, 10, 4)
		tl.Add(0, 3, 1.5)
		tl.Add(1, 3, 2.5)
		tl.Add(2, 7, 4.0)
		cells := tl.Cells()
		if math.Abs(cells[3]-4.0) > 1e-12 || math.Abs(cells[7]-4.0) > 1e-12 {
			t.Errorf("%v: cells = %v", mode, cells)
		}
		if math.Abs(tl.Total()-8.0) > 1e-12 {
			t.Errorf("%v: total = %v, want 8", mode, tl.Total())
		}
		tl.Reset()
		if tl.Total() != 0 {
			t.Errorf("%v: reset did not zero", mode)
		}
	}
}

func TestNullDiscards(t *testing.T) {
	tl := New(ModeNull, 10, 4)
	tl.Add(0, 3, 100)
	if tl.Total() != 0 || tl.Cells() != nil {
		t.Fatal("null tally retained data")
	}
}

// TestAtomicConcurrentSum hammers a small tally from many goroutines and
// checks the result is exact: the CAS loop must never lose an update, which
// is the whole point of the atomic tally.
func TestAtomicConcurrentSum(t *testing.T) {
	const (
		workers = 16
		adds    = 20000
		cells   = 8
	)
	a := NewAtomic(cells)
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
	if got := a.Total(); got != want {
		t.Fatalf("atomic total = %v, want %v (lost updates)", got, want)
	}
	// With 16 workers fighting over 8 cells there must be contention.
	if a.Conflicts() == 0 {
		t.Log("warning: no CAS conflicts observed (machine may be serialising)")
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
	p := NewPrivate(cells, workers)
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
	if got := p.Total(); got != want {
		t.Fatalf("private total = %v, want %v", got, want)
	}
}

// TestAtomicMatchesSerial is the equivalence property: any interleaving of
// atomic adds must reproduce the serial sum exactly for integer-valued
// deposits, and to rounding tolerance for arbitrary ones.
func TestAtomicMatchesSerial(t *testing.T) {
	f := func(deposits []float64) bool {
		const cells = 16
		a := NewAtomic(cells)
		s := NewSerial(cells)
		for i, d := range deposits {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				continue
			}
			d = math.Mod(d, 1e6)
			a.Add(0, i%cells, d)
			s.Add(0, i%cells, d)
		}
		ac, sc := a.Cells(), s.Cells()
		for i := range ac {
			if math.Abs(ac[i]-sc[i]) > 1e-9*math.Max(1, math.Abs(sc[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPrivateMergeIdempotent(t *testing.T) {
	p := NewPrivate(4, 3)
	p.Add(0, 0, 1)
	p.Add(1, 0, 2)
	p.Add(2, 3, 5)
	first := append([]float64(nil), p.Cells()...)
	second := p.Cells() // cached merge
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("merge not idempotent: %v vs %v", first, second)
		}
	}
	p.Add(0, 1, 9) // dirty again
	if got := p.Cells()[1]; got != 9 {
		t.Fatalf("merge after new add = %v, want 9", got)
	}
}

func TestPrivateFootprintScalesWithWorkers(t *testing.T) {
	cells := 1000
	p1 := NewPrivate(cells, 1)
	p256 := NewPrivate(cells, 256)
	if p256.FootprintBytes() != 256*p1.FootprintBytes() {
		t.Fatalf("footprint %d vs %d: want 256x", p256.FootprintBytes(), p1.FootprintBytes())
	}
	// The paper's example: 0.3 GB serial tally grows to ~31 GB at 256
	// threads (a 4000^2 mesh of 8-byte cells is 0.128 GB; with the rest of
	// the mesh fields ~0.3 GB; scaled by 256 either way exceeds the 16 GB
	// MCDRAM).
	serialGB := float64(NewPrivate(4000*4000, 1).FootprintBytes()) / 1e9
	knlGB := float64(NewPrivate(4000*4000, 256).FootprintBytes()) / 1e9
	if knlGB < 16 {
		t.Fatalf("KNL privatised tally = %.1f GB, expected to exceed 16 GB MCDRAM", knlGB)
	}
	if serialGB > 1 {
		t.Fatalf("serial tally = %.1f GB, expected well under 1 GB", serialGB)
	}
}

func TestWorkersReported(t *testing.T) {
	if w := NewPrivate(4, 7).Workers(); w != 7 {
		t.Fatalf("Workers() = %d, want 7", w)
	}
	if w := NewPrivate(4, 0).Workers(); w != 1 {
		t.Fatalf("Workers() with 0 requested = %d, want clamped to 1", w)
	}
}

func TestParseMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Mode
	}{{"atomic", ModeAtomic}, {"private", ModePrivate}, {"serial", ModeSerial}, {"null", ModeNull}} {
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
}

func BenchmarkAtomicAddUncontended(b *testing.B) {
	a := NewAtomic(1 << 16)
	for i := 0; i < b.N; i++ {
		a.Add(0, i&0xFFFF, 1.0)
	}
}

func BenchmarkAtomicAddContended(b *testing.B) {
	a := NewAtomic(4)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			a.Add(0, i&3, 1.0)
			i++
		}
	})
}

func BenchmarkPrivateAdd(b *testing.B) {
	p := NewPrivate(1<<16, 1)
	for i := 0; i < b.N; i++ {
		p.Add(0, i&0xFFFF, 1.0)
	}
}

// TestSparseViewsMatchCells pins the two reads that skip the dense view to
// it, for every implementation: Total is the in-order sum of Cells bit for
// bit (the atomic tally skips zero blocks and never materialises the view),
// and NonZero lists exactly the non-zero entries of Cells in ascending order.
// The sizes straddle the eight-word blocks; the deposits leave empty blocks,
// full blocks and a ragged tail.
func TestSparseViewsMatchCells(t *testing.T) {
	for _, cells := range []int{1, 7, 8, 9, 64, 1000} {
		for _, mode := range []Mode{ModeAtomic, ModePrivate, ModeSerial, ModeBuffered, ModeNull} {
			for _, workers := range []int{1, 3} {
				if mode == ModeSerial && workers > 1 {
					continue
				}
				tl := New(mode, cells, workers)
				if got := tl.NonZero(nil); len(got) != 0 || tl.Total() != 0 {
					t.Fatalf("%v/%d: fresh tally reads %v / %v", mode, cells, got, tl.Total())
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
				dense := tl.Cells()
				var want float64
				var wantNZ []Cell
				for i, v := range dense {
					want += v
					if v != 0 {
						wantNZ = append(wantNZ, Cell{i, v})
					}
				}
				if got := tl.Total(); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%v/%d/%d: Total %v, in-order sum of Cells %v", mode, cells, workers, got, want)
				}
				prefix := []Cell{{-1, -1}}
				got := tl.NonZero(prefix)
				if len(got) != 1+len(wantNZ) || got[0] != prefix[0] {
					t.Fatalf("%v/%d/%d: NonZero returned %d entries after the prefix, want %d", mode, cells, workers, len(got)-1, len(wantNZ))
				}
				for i, c := range wantNZ {
					if got[1+i] != c {
						t.Fatalf("%v/%d/%d: NonZero[%d] = %+v, want %+v", mode, cells, workers, i, got[1+i], c)
					}
				}
			}
		}
	}
}

// TestAtomicCellsAllocatesOnDemand: the dense view's backing array exists
// only once someone has asked for it.
func TestAtomicCellsAllocatesOnDemand(t *testing.T) {
	a := NewAtomic(100)
	a.Add(0, 3, 1.5)
	if a.Total() != 1.5 || len(a.NonZero(nil)) != 1 || a.scratch != nil {
		t.Fatal("Total/NonZero must not materialise the dense view")
	}
	if c := a.Cells(); len(c) != 100 || c[3] != 1.5 {
		t.Fatalf("Cells = %v", c[:5])
	}
}
