package rng

// Stream is a per-particle random number stream. The key identifies the
// stream (simulation seed in the first word, particle identity in the
// second); the counter advances by one per block drawn. Because the
// generator is counter-based, a Stream can be reconstructed at any point
// from just (seed, particle id, counter) — which is exactly what the Over
// Events scheme does between kernels, and what makes histories reproducible
// across thread counts and traversal orders.
type Stream struct {
	key [2]uint64
	ctr uint64
}

// NewStream returns the stream for a particle id under the simulation seed.
func NewStream(seed, id uint64) Stream {
	return Stream{key: [2]uint64{seed, id}}
}

// splitDomain separates the identities of split-born particles from source
// identities: a derived child id always has its top bit set, while source
// families use small consecutive integers, so the two can never collide.
const splitDomain = 0x57575350_4C495431 // "WWSPLIT1"

// ChildID derives a fresh stream identity for the k-th child of a particle
// split by population control. The derivation is a Threefry application of
// the parent's identity and stream position, so it is a pure function of the
// parent history — independent of scheme, schedule, layout and thread count —
// and children of distinct (parent, k) pairs get distinct streams with
// cryptographic-permutation quality. The forced top bit keeps every child
// identity structurally disjoint from the source stream families
// (id = replica*particles + slot), which stay below 2^63 in any real run.
func ChildID(seed, parentID, parentCtr uint64, k int) uint64 {
	b := Threefry2x64([2]uint64{seed ^ splitDomain, parentID}, [2]uint64{parentCtr, uint64(k)})
	return b[0] | (1 << 63)
}

// ResumeStream reconstructs a stream that has already consumed ctr blocks.
func ResumeStream(seed, id, ctr uint64) Stream {
	return Stream{key: [2]uint64{seed, id}, ctr: ctr}
}

// Counter reports how many blocks the stream has consumed. Persist this in
// the particle record to resume the stream later.
func (s *Stream) Counter() uint64 { return s.ctr }

// NextBlock draws the next two raw 64-bit words, advancing the counter once.
func (s *Stream) NextBlock() [2]uint64 {
	x0, x1 := threefry(s.key[0], s.key[1], s.ctr, 0)
	s.ctr++
	return [2]uint64{x0, x1}
}

// Next draws a single raw 64-bit word. One counter increment per draw keeps
// the particle-persisted state a single integer; the second word of the
// block is discarded, which costs one extra cipher call per draw but keeps
// Over Particles and Over Events bit-identical without buffering state.
func (s *Stream) Next() uint64 {
	return s.NextBlock()[0]
}

// Next3 draws three raw 64-bit words at once: exactly the words three
// consecutive Next calls would return, in order, leaving the counter three
// further on. The three counters are known up front — the point of a
// counter-based generator — so the blocks run interleaved (see threefry3)
// instead of one after another. A collision, which draws exactly three
// words, uses it in place of serial draws; the variates and the persisted
// counter are the same.
func (s *Stream) Next3() (w0, w1, w2 uint64) {
	w0, w1, w2 = threefry3(s.key[0], s.key[1], s.ctr)
	s.ctr += 3
	return w0, w1, w2
}

// Next4 is Next3 followed by Next as one four-lane batch (threefry4): the
// same four words, leaving the counter four further on. A birth, which
// draws exactly four fixed words, uses it.
func (s *Stream) Next4() (w0, w1, w2, w3 uint64) {
	w0, w1, w2, w3 = threefry4(s.key[0], s.key[1], s.ctr)
	s.ctr += 4
	return w0, w1, w2, w3
}

// twoTo53 is 2^53; dividing a 53-bit integer by it yields a double with a
// fully random mantissa.
const twoTo53 = 9007199254740992.0

// Unit maps a raw word to a float64 in the half-open interval [0, 1). The
// compiler turns the division into a product, so the conversion keeps a
// caller's add (2*u is u+u) from fusing with it.
func Unit(w uint64) float64 { return float64(float64(w>>11) / twoTo53) }

// UnitOpen maps a raw word to a float64 in the open interval (0, 1):
// (k + 0.5)/2^53 for the word's top 53 bits k. That rounds up to 1 for the
// top k alone, which the min maps to the largest double below 1 instead; no
// other word's bits move.
func UnitOpen(w uint64) float64 { return min((float64(w>>11)+0.5)/twoTo53, 1-1/twoTo53) }

// Uniform returns a uniformly distributed float64 in the half-open interval
// [0, 1).
func (s *Stream) Uniform() float64 { return Unit(s.Next()) }
