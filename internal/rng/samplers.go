package rng

import "math"

// In neutral, random numbers determine: initial particle positions and
// directions within a bounded source region; and on each collision the
// scattering angle, the energy dampening, and the number of mean-free-paths
// until the next collision (paper §IV-F). The samplers below are the single
// authority for those draws so that Over Particles and Over Events consume
// identical variate sequences.
//
// The …Of forms map raw words already drawn, by a batched Next3 or Next4; a
// stream form draws with Next and maps through the same word form, so the
// two cannot disagree.

// DirectionOf maps one raw word to a uniformly distributed unit direction
// in 2D: (cos θ, sin θ) at θ = 2π·Unit(w), bit for bit what math.Cos and
// math.Sin return (TestDirectionOfMatchesCosSin holds a toolchain to that).
// It performs math.Sincos's IEEE operations in Sincos's order — one
// Cody–Waite reduction by π/4, both Cephes polynomials — specialised to
// θ ∈ [0, 2π), where the zero, negative, non-finite and Payne–Hanek cases
// cannot occur. A uniform angle makes each of Sincos's octant branches a
// fair coin; here the octant's round-up, the swap of the two polynomials and
// the two sign flips are integer selects on the results' bits instead.
func DirectionOf(w uint64) (ux, uy float64) {
	const (
		pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, π/4 split into three parts
		pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,
	)
	// Every product is rounded by a float64 conversion before its add or
	// subtract: the Go spec lets a compiler fuse x*y+z into one rounding,
	// which arm64, ppc64le, s390x and riscv64 do, and amd64 does not.
	x := float64(2 * math.Pi * Unit(w))
	// The octant, rounded up to even: 0, 2, 4, 6 or 8, where the top octant's
	// 8 selects like 0. The conversions go through int64 because amd64
	// converts a uint64 with a branch on its top bit.
	j := uint64(int64(x * (4 / math.Pi)))
	j += j & 1
	y := float64(int64(j))
	z := ((x - float64(y*pi4A)) - float64(y*pi4B)) - float64(y*pi4C)
	zz := z * z
	c := 1.0 - float64(0.5*zz) + float64(zz*zz*(float64((float64((float64((float64((float64(cosCoef[0]*zz)+cosCoef[1])*zz)+cosCoef[2])*zz)+cosCoef[3])*zz)+cosCoef[4])*zz)+cosCoef[5]))
	s := z + float64(z*zz*(float64((float64((float64((float64((float64(sinCoef[0]*zz)+sinCoef[1])*zz)+sinCoef[2])*zz)+sinCoef[3])*zz)+sinCoef[4])*zz)+sinCoef[5]))
	// Octants 2 and 6 swap the polynomials; 2 and 4 negate the cosine, 4 and
	// 6 the sine. A shift by 63 keeps only the low bit it shifts.
	cb, sb := math.Float64bits(c), math.Float64bits(s)
	swap := -(j >> 1 & 1) & (cb ^ sb)
	ux = math.Float64frombits(cb ^ swap ^ (j>>1^j>>2)<<63)
	uy = math.Float64frombits(sb ^ swap ^ j>>2<<63)
	return ux, uy
}

// sinCoef and cosCoef are math/sin.go's Cephes coefficients, in its order.
var sinCoef = [...]float64{
	1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
	-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
	2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
	-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
	8.33333333332211858878e-3,  // 0x3f8111111110f7d0
	-1.66666666666666307295e-1, // 0xbfc5555555555548
}

var cosCoef = [...]float64{
	-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
	2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
	-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
	2.48015872888517045348e-5,   // 0x3efa01a019c844f5
	-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
	4.16666666666665929218e-2,   // 0x3fa555555555554b
}

// MeanFreePathsOf maps one raw word to a number of mean free paths until
// the next collision: an Exp(1) variate, the standard analogue sampling of
// the exponential free-flight kernel.
func MeanFreePathsOf(w uint64) float64 { return -math.Log(UnitOpen(w)) }

// MeanFreePaths samples the number of mean free paths until the next
// collision.
func MeanFreePaths(s *Stream) float64 { return MeanFreePathsOf(s.Next()) }

// PointInBoxOf maps two raw words to a uniform position inside the
// axis-aligned box [x0,x1) x [y0,y1).
func PointInBoxOf(wx, wy uint64, x0, x1, y0, y1 float64) (x, y float64) {
	return x0 + float64((x1-x0)*Unit(wx)), y0 + float64((y1-y0)*Unit(wy))
}
