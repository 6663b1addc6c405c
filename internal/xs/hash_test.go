package xs

import (
	"math"
	"math/rand"
	"testing"
)

// probeEnergies is the adversarial energy set for a table: every grid point
// and the doubles either side of it, both endpoints and beyond, zero,
// subnormals, negatives, the infinities and NaN, plus log-uniform random
// energies over a range wider than any grid used here.
func probeEnergies(t *Table, rnd *rand.Rand) []float64 {
	es := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2.5e-310, -1, -1e300, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		t.MinEnergy() / 2, t.MaxEnergy() * 2,
	}
	for _, e := range t.energies {
		es = append(es, e, math.Nextafter(e, math.Inf(1)), math.Nextafter(e, math.Inf(-1)))
	}
	for i := 0; i < 20000; i++ {
		es = append(es, math.Exp(-20+50*rnd.Float64()))
	}
	return es
}

// sameBits reports whether two lookups agree bit for bit (any two NaNs agree).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkAgainstBinary pins the bucket lookup of one table to the binary
// search: same bin, same sigma bits, for every probe energy.
func checkAgainstBinary(t *testing.T, tb *Table, es []float64) {
	t.Helper()
	for _, e := range es {
		ec := tb.clamp(e)
		bin, steps := tb.find(ec)
		if bin < 0 || bin > tb.Len()-2 || steps < 0 {
			t.Fatalf("e=%v: bin %d (steps %d) out of range", e, bin, steps)
		}
		// A NaN has no bin; only its (NaN) value is comparable.
		if want := tb.binBinary(ec); !math.IsNaN(e) && bin != want {
			t.Fatalf("e=%v: bucket search found bin %d, binary search %d", e, bin, want)
		}
		if got, want := tb.Lookup(e), tb.LookupBinary(e); !sameBits(got, want) {
			t.Fatalf("e=%v: Lookup = %v, LookupBinary = %v", e, got, want)
		}
	}
}

func TestBucketLookupMatchesBinary(t *testing.T) {
	for _, n := range []int{2, 3, 100, 1000, 1024, 4096} {
		rnd := rand.New(rand.NewSource(int64(n)))
		p := GeneratePair(n)
		es := probeEnergies(p.Capture, rnd)
		checkAgainstBinary(t, p.Capture, es)
		checkAgainstBinary(t, p.Scatter, es)

		var steps, inDomain int
		for _, e := range es {
			sa, ss, bin, st := p.Lookup(e)
			if !sameBits(sa, p.Capture.LookupBinary(e)) || !sameBits(ss, p.Scatter.LookupBinary(e)) {
				t.Fatalf("n=%d e=%v: pair lookup (%v, %v) != binary (%v, %v)", n, e,
					sa, ss, p.Capture.LookupBinary(e), p.Scatter.LookupBinary(e))
			}
			if want := p.Capture.binBinary(p.Capture.clamp(e)); !math.IsNaN(e) && bin != want {
				t.Fatalf("n=%d e=%v: pair bin %d, binary %d", n, e, bin, want)
			}
			if e >= p.Capture.MinEnergy() && e <= p.Capture.MaxEnergy() {
				steps += st
				inDomain++
			}
		}
		// One bucket per bin or finer: the walk after the jump is short.
		if mean := float64(steps) / float64(inDomain); mean > 1.5 {
			t.Errorf("n=%d: mean walk after the bucket jump = %.2f steps, want < 1.5", n, mean)
		}
		if g := p.Capture.grid; len(g.first) < n-1 || len(g.first) > 2*n {
			t.Errorf("n=%d: %d buckets for %d bins", n, len(g.first), n-1)
		}
	}
}

// TestBucketLookupArbitraryGrids covers grids only NewTable can make:
// linear, clustered, a single bin spanning the whole float range, adjacent
// doubles, and grids at or below zero (which fall back to one bucket).
func TestBucketLookupArbitraryGrids(t *testing.T) {
	linear := make([]float64, 500)
	for i := range linear {
		linear[i] = 1 + float64(i)
	}
	clustered := []float64{1e-9, 1, 1.0000001, 1.0000002, 1.0000003, 1.5, 1e12}
	one := math.Nextafter(1, 2)
	grids := map[string][]float64{
		"linear":    linear,
		"clustered": clustered,
		"wide":      {math.SmallestNonzeroFloat64, math.MaxFloat64},
		"adjacent":  {1, one, math.Nextafter(one, 2)},
		"from-zero": {0, 1, 2, 4},
		"negative":  {-8, -2, -1, 0, 3, 9},
		"to-inf":    {1, 10, math.Inf(1)},
	}
	rnd := rand.New(rand.NewSource(7))
	for name, g := range grids {
		sig := make([]float64, len(g))
		for i := range sig {
			sig[i] = 1 + float64(i%7)
		}
		tb, err := NewTable(Capture, g, sig)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Run(name, func(t *testing.T) { checkAgainstBinary(t, tb, probeEnergies(tb, rnd)) })
	}
}

// TestPairGridSharing pins the once-at-construction decision: equal grids
// (even in separate slices) take one search, different grids fall back to
// two independent ones, and both agree with the binary search.
func TestPairGridSharing(t *testing.T) {
	capture := GenerateCapture(100)
	if !NewPair(capture, GenerateScatter(100)).shared {
		t.Error("equal grids in separate slices not detected as shared")
	}
	if !GeneratePair(100).shared {
		t.Error("GeneratePair not shared")
	}
	for _, scatter := range []*Table{GenerateScatter(64), GenerateScatter(101)} {
		p := NewPair(capture, scatter)
		if p.shared {
			t.Fatalf("grids of %d and %d points reported shared", capture.Len(), scatter.Len())
		}
		literal := Pair{Capture: capture, Scatter: scatter}
		for _, e := range probeEnergies(scatter, rand.New(rand.NewSource(3))) {
			for _, q := range []*Pair{&p, &literal} {
				sa, ss, bin, _ := q.Lookup(e)
				if !sameBits(sa, capture.LookupBinary(e)) || !sameBits(ss, scatter.LookupBinary(e)) {
					t.Fatalf("e=%v: unshared pair lookup (%v, %v) != binary (%v, %v)", e,
						sa, ss, capture.LookupBinary(e), scatter.LookupBinary(e))
				}
				if want := capture.binBinary(capture.clamp(e)); !math.IsNaN(e) && bin != want {
					t.Fatalf("e=%v: unshared pair bin %d, capture binary bin %d", e, bin, want)
				}
			}
		}
	}
}

func TestNewTableRejectsNaNEnergy(t *testing.T) {
	for _, g := range [][]float64{{math.NaN(), 1, 2}, {1, math.NaN(), 3}, {1, 2, math.NaN()}} {
		if _, err := NewTable(Capture, g, []float64{1, 1, 1}); err == nil {
			t.Errorf("grid %v accepted", g)
		}
	}
}

// collisionChain is the energy sequence of the solver's lookups: each
// collision scales the energy by a factor uniform in (0.3, 1), restarting
// from the source energy at the cutoff.
func collisionChain(n int) []float64 {
	rnd := rand.New(rand.NewSource(1))
	es := make([]float64, n)
	e := 1e7
	for i := range es {
		e *= 0.3 + 0.7*rnd.Float64()
		if e < 1 {
			e = 1e7
		}
		es[i] = e
	}
	return es
}

func BenchmarkPairLookup(b *testing.B) {
	p := GeneratePair(DefaultPoints)
	es := collisionChain(1 << 12)
	var sink float64
	for i := 0; i < b.N; i++ {
		sa, ss, _, _ := p.Lookup(es[i&(len(es)-1)])
		sink += sa + ss
	}
	_ = sink
}

// BenchmarkPairCursors is the lookup the solver used before: two cached
// linear walks over the same grid.
func BenchmarkPairCursors(b *testing.B) {
	p := GeneratePair(DefaultPoints)
	c, s := NewCursor(p.Capture), NewCursor(p.Scatter)
	es := collisionChain(1 << 12)
	var sink float64
	for i := 0; i < b.N; i++ {
		e := es[i&(len(es)-1)]
		sink += c.Lookup(e) + s.Lookup(e)
	}
	_ = sink
}
