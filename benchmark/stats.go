package main

import (
	"math"
	"sort"
)

// quartiles returns the three cut points of sorted values exactly as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method) does, so
// the spreads -repeat prints are the ones the acceptance check computes.
// With fewer than two values all three equal the single value (or NaN).
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		// Python: j = i*(n+1)//4 clamped to 1..n-1, delta recomputed after
		// the clamp (so tiny samples extrapolate, exactly as Python does).
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle value (mean of the two middle values for even n).
func median(values []float64) float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return v[n/2]
	default:
		return (v[n/2-1] + v[n/2]) / 2
	}
}

// percentile returns the q-quantile (0..1) by linear interpolation between
// closest ranks; used for p90.
func percentile(values []float64, q float64) float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if len(v) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

// summary is what is printed beside every metric: the median, the quartiles,
// the minimum and the sample count.
type summary struct {
	N                int
	Min, Q1, Med, Q3 float64
}

func summarize(values []float64) summary {
	if len(values) == 0 {
		return summary{Min: math.NaN(), Q1: math.NaN(), Med: math.NaN(), Q3: math.NaN()}
	}
	q1, _, q3 := quartiles(values)
	min := values[0]
	for _, x := range values {
		if x < min {
			min = x
		}
	}
	return summary{N: len(values), Min: min, Q1: q1, Med: median(values), Q3: q3}
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}

// worsening reports by how much b is worse than a, as a share of a, given the
// metric's direction; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return math.NaN()
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
