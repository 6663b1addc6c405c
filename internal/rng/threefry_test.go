package rng

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// threefry2x64Reference is an independently written implementation of the
// same cipher, structured differently (explicit four-round groups with
// unrolled injections) to guard against a shared transcription error in the
// optimised version.
func threefry2x64Reference(key, ctr [2]uint64) [2]uint64 {
	k0, k1 := key[0], key[1]
	k2 := uint64(0x1BD11BDAA9FC1A22) ^ k0 ^ k1
	sched := [3]uint64{k0, k1, k2}

	x0 := ctr[0] + k0
	x1 := ctr[1] + k1
	round := func(r int) {
		x0 += x1
		x1 = bits.RotateLeft64(x1, int([8]uint{16, 42, 12, 31, 16, 32, 24, 21}[r%8]))
		x1 ^= x0
	}
	for group := 0; group < 5; group++ {
		round(4*group + 0)
		round(4*group + 1)
		round(4*group + 2)
		round(4*group + 3)
		s := uint64(group + 1)
		x0 += sched[s%3]
		x1 += sched[(s+1)%3] + s
	}
	return [2]uint64{x0, x1}
}

func TestThreefryMatchesReference(t *testing.T) {
	f := func(k0, k1, c0, c1 uint64) bool {
		got := Threefry2x64([2]uint64{k0, k1}, [2]uint64{c0, c1})
		want := threefry2x64Reference([2]uint64{k0, k1}, [2]uint64{c0, c1})
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestThreefryKnownAnswers pins the cipher to Random123's published
// known-answer vectors for threefry2x64 with 20 rounds (kat_vectors), so the
// implementation is checked against the reference library and not only
// against this package's own second transcription.
func TestThreefryKnownAnswers(t *testing.T) {
	const ff = ^uint64(0)
	for _, v := range []struct{ ctr, key, want [2]uint64 }{
		{[2]uint64{0, 0}, [2]uint64{0, 0},
			[2]uint64{0xc2b6e3a8c2c69865, 0x6f81ed42f350084d}},
		{[2]uint64{ff, ff}, [2]uint64{ff, ff},
			[2]uint64{0xe02cb7c4d95d277a, 0xd06633d0893b8b68}},
		{[2]uint64{0x243f6a8885a308d3, 0x13198a2e03707344}, [2]uint64{0xa4093822299f31d0, 0x082efa98ec4e6c89},
			[2]uint64{0x263c7d30bb0f0af1, 0x56be8361d3311526}},
	} {
		if got := Threefry2x64(v.key, v.ctr); got != v.want {
			t.Errorf("Threefry2x64(key %x, ctr %x) = %x, want %x", v.key, v.ctr, got, v.want)
		}
	}
}

func TestThreefryDeterministic(t *testing.T) {
	key := [2]uint64{0xDEADBEEF, 42}
	ctr := [2]uint64{7, 0}
	a := Threefry2x64(key, ctr)
	b := Threefry2x64(key, ctr)
	if a != b {
		t.Fatalf("same (key, ctr) produced different blocks: %x vs %x", a, b)
	}
}

func TestThreefryZeroInputNotZeroOutput(t *testing.T) {
	out := Threefry2x64([2]uint64{0, 0}, [2]uint64{0, 0})
	if out[0] == 0 && out[1] == 0 {
		t.Fatal("all-zero input mapped to all-zero output; key schedule parity constant is not being applied")
	}
}

// TestThreefryCounterAvalanche checks that adjacent counters produce blocks
// differing in roughly half their bits — the property that makes one-step
// counter increments a valid stream.
func TestThreefryCounterAvalanche(t *testing.T) {
	key := [2]uint64{1234, 5678}
	var totalBits, totalDiff int
	for c := uint64(0); c < 1000; c++ {
		a := Threefry2x64(key, [2]uint64{c, 0})
		b := Threefry2x64(key, [2]uint64{c + 1, 0})
		totalDiff += bits.OnesCount64(a[0]^b[0]) + bits.OnesCount64(a[1]^b[1])
		totalBits += 128
	}
	frac := float64(totalDiff) / float64(totalBits)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("avalanche fraction = %.3f, want ~0.5", frac)
	}
}

// TestThreefryKeyAvalanche checks the same property across adjacent keys,
// which underpins per-particle stream independence (keys differ by one in
// the particle-id word).
func TestThreefryKeyAvalanche(t *testing.T) {
	var totalBits, totalDiff int
	for id := uint64(0); id < 1000; id++ {
		a := Threefry2x64([2]uint64{99, id}, [2]uint64{0, 0})
		b := Threefry2x64([2]uint64{99, id + 1}, [2]uint64{0, 0})
		totalDiff += bits.OnesCount64(a[0]^b[0]) + bits.OnesCount64(a[1]^b[1])
		totalBits += 128
	}
	frac := float64(totalDiff) / float64(totalBits)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("key avalanche fraction = %.3f, want ~0.5", frac)
	}
}

// TestThreefryInjective verifies the cipher is a bijection on a sample of
// counter space (no collisions), as required of a counter-mode generator.
func TestThreefryInjective(t *testing.T) {
	key := [2]uint64{3, 1}
	seen := make(map[[2]uint64][2]uint64, 1<<16)
	for c := uint64(0); c < 1<<16; c++ {
		out := Threefry2x64(key, [2]uint64{c, 0})
		if prev, dup := seen[out]; dup {
			t.Fatalf("collision: counters %v and %v both map to %x", prev, [2]uint64{c, 0}, out)
		}
		seen[out] = [2]uint64{c, 0}
	}
}

func BenchmarkThreefry2x64(b *testing.B) {
	key := [2]uint64{1, 2}
	var sink [2]uint64
	for i := 0; i < b.N; i++ {
		sink = Threefry2x64(key, [2]uint64{uint64(i), 0})
	}
	_ = sink
}
