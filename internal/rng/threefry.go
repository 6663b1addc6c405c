// Package rng implements the counter-based random number generation used by
// the neutral mini-app.
//
// The paper selects Random123's Threefry generator (Salmon et al., SC'11)
// because counter-based RNGs (CBRNGs) are stateless: given a (key, counter)
// pair they deterministically return a random block. Storing a key and a
// counter per particle makes every particle history reproducible regardless
// of which thread, scheme (Over Particles vs Over Events) or schedule
// processes it. This package is a from-scratch port of Threefry-2x64 with the
// standard 20 rounds.
package rng

import "math/bits"

// skeinKSParity is the Threefish/Skein key-schedule parity constant. The
// extended key word is the XOR of all key words with this constant, which
// prevents an all-zero extended key.
const skeinKSParity = 0x1BD11BDAA9FC1A22

// The Threefry-2x64 rotation constants, applied cyclically, one per round.
// They come from the Skein reference specification. The cipher is 20 rounds
// (the count Salmon et al. recommend; it passes BigCrush with a large safety
// margin): five groups of four, a key injection after each group.
const (
	rot0, rot1, rot2, rot3 = 16, 42, 12, 31
	rot4, rot5, rot6, rot7 = 16, 32, 24, 21
)

// Threefry2x64 applies the 20-round Threefry-2x64 bijection to the counter
// block ctr under the given key and returns the two output words. It is a
// pure function: the same (key, ctr) always produces the same block.
func Threefry2x64(key, ctr [2]uint64) [2]uint64 {
	x0, x1 := threefry(key[0], key[1], ctr[0], ctr[1])
	return [2]uint64{x0, x1}
}

// mix is one Threefry round on the word pair.
func mix(x0, x1 uint64, r int) (uint64, uint64) {
	x0 += x1
	x1 = bits.RotateLeft64(x1, r) ^ x0
	return x0, x1
}

// threefry is the cipher as straight-line code on scalars: rotation counts
// are immediates, the three-word key schedule stays in registers and each
// injection is written out, so a block is 20 add/rotate/xor triples with no
// table load, no modulo and no branch.
func threefry(k0, k1, c0, c1 uint64) (uint64, uint64) {
	k2 := skeinKSParity ^ k0 ^ k1
	x0, x1 := c0+k0, c1+k1

	x0, x1 = mix(x0, x1, rot0)
	x0, x1 = mix(x0, x1, rot1)
	x0, x1 = mix(x0, x1, rot2)
	x0, x1 = mix(x0, x1, rot3)
	x0, x1 = x0+k1, x1+k2+1

	x0, x1 = mix(x0, x1, rot4)
	x0, x1 = mix(x0, x1, rot5)
	x0, x1 = mix(x0, x1, rot6)
	x0, x1 = mix(x0, x1, rot7)
	x0, x1 = x0+k2, x1+k0+2

	x0, x1 = mix(x0, x1, rot0)
	x0, x1 = mix(x0, x1, rot1)
	x0, x1 = mix(x0, x1, rot2)
	x0, x1 = mix(x0, x1, rot3)
	x0, x1 = x0+k0, x1+k1+3

	x0, x1 = mix(x0, x1, rot4)
	x0, x1 = mix(x0, x1, rot5)
	x0, x1 = mix(x0, x1, rot6)
	x0, x1 = mix(x0, x1, rot7)
	x0, x1 = x0+k1, x1+k2+4

	x0, x1 = mix(x0, x1, rot0)
	x0, x1 = mix(x0, x1, rot1)
	x0, x1 = mix(x0, x1, rot2)
	x0, x1 = mix(x0, x1, rot3)
	x0, x1 = x0+k2, x1+k0+5

	return x0, x1
}

// mix3 is one round on three independent word pairs.
func mix3(a0, a1, b0, b1, c0, c1 uint64, r int) (uint64, uint64, uint64, uint64, uint64, uint64) {
	a0 += a1
	b0 += b1
	c0 += c1
	a1 = bits.RotateLeft64(a1, r) ^ a0
	b1 = bits.RotateLeft64(b1, r) ^ b0
	c1 = bits.RotateLeft64(c1, r) ^ c0
	return a0, a1, b0, b1, c0, c1
}

// inject3 adds one key-schedule pair to three word pairs.
func inject3(a0, a1, b0, b1, c0, c1, ka, kb uint64) (uint64, uint64, uint64, uint64, uint64, uint64) {
	return a0 + ka, a1 + kb, b0 + ka, b1 + kb, c0 + ka, c1 + kb
}

// threefry3 returns the first output word of the three blocks at counters
// (c,0), (c+1,0) and (c+2,0) under one key: the words three consecutive
// threefry calls would return, computed as three interleaved dependency
// chains. One block is a serial chain of 20 two-cycle rounds that leaves
// most of the core's ALUs idle; three chains side by side fill them, so the
// batch costs about 1.5 blocks of latency instead of three. Three lanes of
// two words plus the key schedule is also what fits the amd64 register file
// without spills (threefry4 is no faster per word). The second word of each
// block is not produced, so the last round skips it.
func threefry3(k0, k1, c uint64) (uint64, uint64, uint64) {
	k2 := skeinKSParity ^ k0 ^ k1
	a0, a1 := c+k0, k1
	b0, b1 := c+1+k0, k1
	c0, c1 := c+2+k0, k1

	a0, a1, b0, b1, c0, c1 = mix3(a0, a1, b0, b1, c0, c1, rot0)
	a0, a1, b0, b1, c0, c1 = mix3(a0, a1, b0, b1, c0, c1, rot1)
	a0, a1, b0, b1, c0, c1 = mix3(a0, a1, b0, b1, c0, c1, rot2)
	a0, a1, b0, b1, c0, c1 = mix3(a0, a1, b0, b1, c0, c1, rot3)
	a0, a1, b0, b1, c0, c1 = inject3(a0, a1, b0, b1, c0, c1, k1, k2+1)

	a0, a1, b0, b1, c0, c1 = mix3(a0, a1, b0, b1, c0, c1, rot4)
	a0, a1, b0, b1, c0, c1 = mix3(a0, a1, b0, b1, c0, c1, rot5)
	a0, a1, b0, b1, c0, c1 = mix3(a0, a1, b0, b1, c0, c1, rot6)
	a0, a1, b0, b1, c0, c1 = mix3(a0, a1, b0, b1, c0, c1, rot7)
	a0, a1, b0, b1, c0, c1 = inject3(a0, a1, b0, b1, c0, c1, k2, k0+2)

	a0, a1, b0, b1, c0, c1 = mix3(a0, a1, b0, b1, c0, c1, rot0)
	a0, a1, b0, b1, c0, c1 = mix3(a0, a1, b0, b1, c0, c1, rot1)
	a0, a1, b0, b1, c0, c1 = mix3(a0, a1, b0, b1, c0, c1, rot2)
	a0, a1, b0, b1, c0, c1 = mix3(a0, a1, b0, b1, c0, c1, rot3)
	a0, a1, b0, b1, c0, c1 = inject3(a0, a1, b0, b1, c0, c1, k0, k1+3)

	a0, a1, b0, b1, c0, c1 = mix3(a0, a1, b0, b1, c0, c1, rot4)
	a0, a1, b0, b1, c0, c1 = mix3(a0, a1, b0, b1, c0, c1, rot5)
	a0, a1, b0, b1, c0, c1 = mix3(a0, a1, b0, b1, c0, c1, rot6)
	a0, a1, b0, b1, c0, c1 = mix3(a0, a1, b0, b1, c0, c1, rot7)
	a0, a1, b0, b1, c0, c1 = inject3(a0, a1, b0, b1, c0, c1, k1, k2+4)

	a0, a1, b0, b1, c0, c1 = mix3(a0, a1, b0, b1, c0, c1, rot0)
	a0, a1, b0, b1, c0, c1 = mix3(a0, a1, b0, b1, c0, c1, rot1)
	a0, a1, b0, b1, c0, c1 = mix3(a0, a1, b0, b1, c0, c1, rot2)
	a0, _, b0, _, c0, _ = mix3(a0, a1, b0, b1, c0, c1, rot3)
	return a0 + k2, b0 + k2, c0 + k2
}

// mix4 is one round on four independent word pairs.
func mix4(a0, a1, b0, b1, c0, c1, d0, d1 uint64, r int) (uint64, uint64, uint64, uint64, uint64, uint64, uint64, uint64) {
	a0 += a1
	b0 += b1
	c0 += c1
	d0 += d1
	a1 = bits.RotateLeft64(a1, r) ^ a0
	b1 = bits.RotateLeft64(b1, r) ^ b0
	c1 = bits.RotateLeft64(c1, r) ^ c0
	d1 = bits.RotateLeft64(d1, r) ^ d0
	return a0, a1, b0, b1, c0, c1, d0, d1
}

// inject4 adds one key-schedule pair to four word pairs.
func inject4(a0, a1, b0, b1, c0, c1, d0, d1, ka, kb uint64) (uint64, uint64, uint64, uint64, uint64, uint64, uint64, uint64) {
	return a0 + ka, a1 + kb, b0 + ka, b1 + kb, c0 + ka, c1 + kb, d0 + ka, d1 + kb
}

// threefry4 is threefry3 with a fourth lane, at counter (c+3,0): no faster
// per word, but a caller that needs exactly four words saves the whole
// serial block latency a fourth block after the batch would cost.
func threefry4(k0, k1, c uint64) (uint64, uint64, uint64, uint64) {
	k2 := skeinKSParity ^ k0 ^ k1
	a0, a1 := c+k0, k1
	b0, b1 := c+1+k0, k1
	c0, c1 := c+2+k0, k1
	d0, d1 := c+3+k0, k1

	a0, a1, b0, b1, c0, c1, d0, d1 = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot0)
	a0, a1, b0, b1, c0, c1, d0, d1 = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot1)
	a0, a1, b0, b1, c0, c1, d0, d1 = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot2)
	a0, a1, b0, b1, c0, c1, d0, d1 = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot3)
	a0, a1, b0, b1, c0, c1, d0, d1 = inject4(a0, a1, b0, b1, c0, c1, d0, d1, k1, k2+1)

	a0, a1, b0, b1, c0, c1, d0, d1 = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot4)
	a0, a1, b0, b1, c0, c1, d0, d1 = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot5)
	a0, a1, b0, b1, c0, c1, d0, d1 = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot6)
	a0, a1, b0, b1, c0, c1, d0, d1 = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot7)
	a0, a1, b0, b1, c0, c1, d0, d1 = inject4(a0, a1, b0, b1, c0, c1, d0, d1, k2, k0+2)

	a0, a1, b0, b1, c0, c1, d0, d1 = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot0)
	a0, a1, b0, b1, c0, c1, d0, d1 = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot1)
	a0, a1, b0, b1, c0, c1, d0, d1 = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot2)
	a0, a1, b0, b1, c0, c1, d0, d1 = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot3)
	a0, a1, b0, b1, c0, c1, d0, d1 = inject4(a0, a1, b0, b1, c0, c1, d0, d1, k0, k1+3)

	a0, a1, b0, b1, c0, c1, d0, d1 = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot4)
	a0, a1, b0, b1, c0, c1, d0, d1 = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot5)
	a0, a1, b0, b1, c0, c1, d0, d1 = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot6)
	a0, a1, b0, b1, c0, c1, d0, d1 = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot7)
	a0, a1, b0, b1, c0, c1, d0, d1 = inject4(a0, a1, b0, b1, c0, c1, d0, d1, k1, k2+4)

	a0, a1, b0, b1, c0, c1, d0, d1 = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot0)
	a0, a1, b0, b1, c0, c1, d0, d1 = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot1)
	a0, a1, b0, b1, c0, c1, d0, d1 = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot2)
	a0, _, b0, _, c0, _, d0, _ = mix4(a0, a1, b0, b1, c0, c1, d0, d1, rot3)
	return a0 + k2, b0 + k2, c0 + k2, d0 + k2
}
