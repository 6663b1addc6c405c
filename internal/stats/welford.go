// Package stats implements ensemble statistics for the neutral mini-app:
// multi-replica runs folded into per-cell mean, sample variance, relative
// error and figure of merit (FOM). A single Monte Carlo run reports a mean
// tally with no uncertainty; production transport codes (MC/DC, OpenMC)
// treat batch statistics as a core requirement, and FOM — 1/(relative
// error² × runtime) — is the currency in which variance-reduction
// techniques like the weight window are compared.
package stats

import "math"

// Accumulator folds per-replica per-cell tallies into running first and
// second moments with Welford's algorithm. An ensemble has one, fed in
// replica order, so the folded statistics are a function of the config alone.
type Accumulator struct {
	n    int
	mean []float64
	m2   []float64
}

// NewAccumulator returns an accumulator over the given cell count.
func NewAccumulator(cells int) *Accumulator {
	return &Accumulator{mean: make([]float64, cells), m2: make([]float64, cells)}
}

// Add folds one replica's per-cell tally. A nil or short slice (null tally)
// contributes zeros for the missing cells.
func (a *Accumulator) Add(cells []float64) {
	a.n++
	inv := 1 / float64(a.n)
	for i := range a.mean {
		var v float64
		if i < len(cells) {
			v = cells[i]
		}
		d := v - a.mean[i]
		a.mean[i] += d * inv
		a.m2[i] += d * (v - a.mean[i])
	}
}

// Count reports how many replicas have been folded in.
func (a *Accumulator) Count() int { return a.n }

// Mean returns the per-cell ensemble means. The slice is owned by the
// accumulator.
func (a *Accumulator) Mean() []float64 { return a.mean }

// Variance returns the per-cell sample variances (Bessel-corrected); nil
// with fewer than two replicas.
func (a *Accumulator) Variance() []float64 {
	if a.n < 2 {
		return nil
	}
	out := make([]float64, len(a.m2))
	inv := 1 / float64(a.n-1)
	for i, m2 := range a.m2 {
		out[i] = m2 * inv
	}
	return out
}

// RelErr returns the per-cell relative error of the mean:
// √(variance/n) / |mean|, zero where the mean is zero. This is the standard
// Monte Carlo R statistic that FOM is built on.
func (a *Accumulator) RelErr() []float64 {
	out := make([]float64, len(a.mean))
	if a.n < 2 {
		return out
	}
	inv := 1 / float64(a.n-1) / float64(a.n)
	for i, m2 := range a.m2 {
		if a.mean[i] != 0 {
			out[i] = math.Sqrt(m2*inv) / math.Abs(a.mean[i])
		}
	}
	return out
}

// scalarStats summarises one scalar series (the per-replica tally totals):
// mean and relative error of the mean.
func scalarStats(vals []float64) (mean, relErr float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	for _, v := range vals {
		mean += v
	}
	mean /= float64(n)
	if n < 2 || mean == 0 {
		return mean, 0
	}
	var m2 float64
	for _, v := range vals {
		d := v - mean
		m2 += d * d
	}
	se := math.Sqrt(m2 / float64(n-1) / float64(n))
	return mean, se / math.Abs(mean)
}
