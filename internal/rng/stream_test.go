package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamResume(t *testing.T) {
	s := NewStream(7, 11)
	var first []uint64
	for i := 0; i < 10; i++ {
		first = append(first, s.Next())
	}
	// Resume from the counter after 4 draws and check the tail matches.
	r := ResumeStream(7, 11, 4)
	for i := 4; i < 10; i++ {
		if got := r.Next(); got != first[i] {
			t.Fatalf("resumed draw %d = %#x, want %#x", i, got, first[i])
		}
	}
}

// TestNext3MatchesSerialDraws is the batched-draw contract: Next3 returns the
// words of three serial Next calls, in order, and leaves the same counter —
// from any stream position, including across counter wrap-around.
func TestNext3MatchesSerialDraws(t *testing.T) {
	f := func(seed, id, ctr uint64) bool {
		batched, serial := ResumeStream(seed, id, ctr), ResumeStream(seed, id, ctr)
		w0, w1, w2 := batched.Next3()
		return w0 == serial.Next() && w1 == serial.Next() && w2 == serial.Next() &&
			batched.Counter() == serial.Counter() && batched.Next() == serial.Next()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	for _, ctr := range []uint64{0, ^uint64(0), ^uint64(0) - 1, ^uint64(0) - 2} {
		if !f(1, 2, ctr) {
			t.Errorf("Next3 differs from serial draws at counter %#x", ctr)
		}
	}
}

func TestStreamCounterAdvances(t *testing.T) {
	s := NewStream(1, 2)
	if s.Counter() != 0 {
		t.Fatalf("fresh stream counter = %d, want 0", s.Counter())
	}
	s.Next()
	s.Uniform()
	s.UniformPair()
	if s.Counter() != 3 {
		t.Fatalf("counter after 3 draws = %d, want 3", s.Counter())
	}
}

func TestUniformInRange(t *testing.T) {
	f := func(seed, id, ctr uint64) bool {
		s := ResumeStream(seed, id, ctr)
		u := s.Uniform()
		v := s.UniformOpen()
		return u >= 0 && u < 1 && v > 0 && v < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestUniformMoments checks the first two moments of the uniform output; a
// generator defect large enough to bias transport results would show here.
func TestUniformMoments(t *testing.T) {
	const n = 200000
	s := NewStream(2024, 0)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		u := s.Uniform()
		sum += u
		sumSq += u * u
	}
	mean := sum / n
	second := sumSq / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %.5f, want 0.5 +/- 0.005", mean)
	}
	if math.Abs(second-1.0/3.0) > 0.005 {
		t.Errorf("E[u^2] = %.5f, want 1/3 +/- 0.005", second)
	}
}

// TestUniformChiSquare bins 64k draws into 64 cells and checks the
// chi-square statistic is not catastrophically far from its expectation.
func TestUniformChiSquare(t *testing.T) {
	const (
		n    = 1 << 16
		bins = 64
	)
	var counts [bins]int
	s := NewStream(99, 3)
	for i := 0; i < n; i++ {
		counts[int(s.Uniform()*bins)]++
	}
	expected := float64(n) / bins
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 63 degrees of freedom: mean 63, stddev ~11.2. Accept +/- 6 sigma.
	if chi2 < 63-67 || chi2 > 63+67 {
		t.Fatalf("chi-square = %.1f, grossly outside expected range around 63", chi2)
	}
}

// TestStreamIndependence verifies that streams for adjacent particle ids are
// uncorrelated at lag zero (sample correlation near 0).
func TestStreamIndependence(t *testing.T) {
	const n = 50000
	a := NewStream(5, 100)
	b := NewStream(5, 101)
	var sa, sb, sab, saa, sbb float64
	for i := 0; i < n; i++ {
		x := a.Uniform()
		y := b.Uniform()
		sa += x
		sb += y
		sab += x * y
		saa += x * x
		sbb += y * y
	}
	cov := sab/n - (sa/n)*(sb/n)
	va := saa/n - (sa/n)*(sa/n)
	vb := sbb/n - (sb/n)*(sb/n)
	corr := cov / math.Sqrt(va*vb)
	if math.Abs(corr) > 0.02 {
		t.Fatalf("correlation between adjacent streams = %.4f, want ~0", corr)
	}
}

func TestUniformPairMatchesBlock(t *testing.T) {
	s1 := NewStream(8, 9)
	s2 := NewStream(8, 9)
	u, v := s1.UniformPair()
	b := s2.NextBlock()
	if u != float64(b[0]>>11)/twoTo53 || v != float64(b[1]>>11)/twoTo53 {
		t.Fatal("UniformPair does not correspond to one cipher block")
	}
}

func BenchmarkStreamUniform(b *testing.B) {
	s := NewStream(1, 1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = s.Uniform()
	}
	_ = sink
}
