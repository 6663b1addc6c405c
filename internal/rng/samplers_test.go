package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIsotropicDirectionUnit(t *testing.T) {
	f := func(seed, id uint64) bool {
		s := NewStream(seed, id)
		ux, uy := DirectionOf(s.Next())
		return math.Abs(ux*ux+uy*uy-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDirectionOfMatchesCosSin: DirectionOf performs math.Sincos's
// arithmetic with the octant selected on bits, and every golden in the
// repository was recorded with separate math.Cos and math.Sin calls. They
// agree bit for bit on the toolchains this was written on; one where they do
// not must fail here, not move a golden.
func TestDirectionOfMatchesCosSin(t *testing.T) {
	check := func(w uint64) {
		theta := 2 * math.Pi * Unit(w)
		ux, uy := DirectionOf(w)
		if wx, wy := math.Cos(theta), math.Sin(theta); math.Float64bits(ux) != math.Float64bits(wx) ||
			math.Float64bits(uy) != math.Float64bits(wy) {
			t.Fatalf("word %#x: DirectionOf = (%x, %x), Cos/Sin = (%x, %x)", w, ux, uy, wx, wy)
		}
	}
	// The words on each octant boundary of the argument reduction (the
	// angle is k·π/4 at Unit = k/8) and the 64 representable angles on each
	// side, where the octant, its round-up and the selects change. Below
	// k = 0 they wrap to the top words, whose angles are nearest 2π.
	const ulp = 1 << 11 // Unit drops the low 11 bits
	for k := uint64(0); k < 8; k++ {
		for d := uint64(0); d <= 64; d++ {
			check(k<<61 + d*ulp)
			check(k<<61 - d*ulp)
		}
	}
	// The top words with their low bits set. x·4/π is within an ulp of 8
	// there, so a toolchain whose product rounds to 8 shows here; either way
	// the round-up makes the top eighth octant 8, which selects as 0.
	for d := uint64(0); d <= 64; d++ {
		check(^uint64(0) - d*ulp)
	}
	s := NewStream(2026, 0)
	for i := 0; i < 10_000_000; i++ {
		check(s.Next())
	}
}

func TestIsotropicDirectionCoversQuadrants(t *testing.T) {
	s := NewStream(17, 0)
	var quad [4]int
	const n = 40000
	for i := 0; i < n; i++ {
		ux, uy := DirectionOf(s.Next())
		idx := 0
		if ux < 0 {
			idx |= 1
		}
		if uy < 0 {
			idx |= 2
		}
		quad[idx]++
	}
	for q, c := range quad {
		frac := float64(c) / n
		if math.Abs(frac-0.25) > 0.02 {
			t.Errorf("quadrant %d fraction = %.3f, want 0.25 +/- 0.02", q, frac)
		}
	}
}

func TestMeanFreePathsDistribution(t *testing.T) {
	s := NewStream(3, 3)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := MeanFreePaths(&s)
		if x < 0 || math.IsInf(x, 0) || math.IsNaN(x) {
			t.Fatalf("invalid exponential variate %v", x)
		}
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("Exp(1) mean = %.4f, want 1 +/- 0.02", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("Exp(1) variance = %.4f, want 1 +/- 0.05", variance)
	}
	// The top word is the shortest flight, and still a flight.
	if x := MeanFreePathsOf(^uint64(0)); !(x > 0) {
		t.Errorf("MeanFreePathsOf(top word) = %v, want > 0", x)
	}
}

func TestPointInBoxBounds(t *testing.T) {
	f := func(seed uint64, a, b float64) bool {
		// Map arbitrary floats into a bounded interval so the box stays
		// finite and non-degenerate.
		a = math.Mod(math.Abs(a), 1e6)
		b = math.Mod(math.Abs(b), 1e6)
		if math.IsNaN(a) {
			a = 0
		}
		if math.IsNaN(b) {
			b = 1
		}
		x0 := math.Min(a, b)
		x1 := math.Max(a, b) + 1 // ensure non-empty
		s := NewStream(seed, 0)
		wx, wy, _ := s.Next3()
		x, y := PointInBoxOf(wx, wy, x0, x1, -2, 5)
		return x >= x0 && x < x1 && y >= -2 && y < 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestScatterCosineRange: a collision redirects a particle to DirectionOf
// its first word whatever its incoming direction, so the cosine of the
// scattering angle lies in [-1, 1] with mean 0 — isotropic scatter.
func TestScatterCosineRange(t *testing.T) {
	s := NewStream(21, 4)
	var sum float64
	const n = 100000
	ux, uy := DirectionOf(s.Next())
	for i := 0; i < n; i++ {
		vx, vy := DirectionOf(s.Next())
		mu := ux*vx + uy*vy
		if mu < -1-1e-12 || mu > 1+1e-12 {
			t.Fatalf("scatter cosine %v outside [-1, 1]", mu)
		}
		sum += mu
		ux, uy = vx, vy
	}
	if mean := sum / n; math.Abs(mean) > 0.01 {
		t.Errorf("scatter cosine mean = %.4f, want 0 (isotropic)", mean)
	}
}
