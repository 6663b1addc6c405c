package rng

import "math"

// In neutral, random numbers determine: initial particle positions and
// directions within a bounded source region; and on each collision the
// scattering angle, the energy dampening, and the number of mean-free-paths
// until the next collision (paper §IV-F). The samplers below are the single
// authority for those draws so that Over Particles and Over Events consume
// identical variate sequences.
//
// The …Of forms map raw words already drawn, by a batched Stream.Next3; a
// stream form draws with Next and maps through the same word form, so the
// two cannot disagree.

// DirectionOf maps one raw word to a uniformly distributed unit direction
// in 2D. math.Sincos reduces the angle once and evaluates the two polynomials
// math.Cos and math.Sin evaluate, so the bits are theirs at two thirds of the
// cost (TestDirectionOfMatchesCosSin holds a toolchain to that).
func DirectionOf(w uint64) (ux, uy float64) {
	uy, ux = math.Sincos(2 * math.Pi * Unit(w))
	return ux, uy
}

// IsotropicDirection samples a uniformly distributed unit direction in 2D.
func IsotropicDirection(s *Stream) (ux, uy float64) { return DirectionOf(s.Next()) }

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
	return x0 + (x1-x0)*Unit(wx), y0 + (y1-y0)*Unit(wy)
}

// ScatterCosine samples the cosine of the centre-of-mass scattering angle,
// isotropic in the CM frame: mu ~ U(-1, 1).
func ScatterCosine(s *Stream) float64 {
	return 2*s.Uniform() - 1
}
