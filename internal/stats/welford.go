// Package stats implements the neutral mini-app's statistics: ensembles,
// which fold multi-replica runs into per-cell mean, variance, relative error
// and figure of merit (FOM = 1/(relative error² × runtime)), the currency
// production transport codes (MC/DC, OpenMC) price variance reduction in;
// and the paired runner (Compare), which alternates two configurations so a
// speedup claim carries its run-to-run spread.
package stats

import (
	"math"
	"time"

	"repro/internal/core"
)

// Accumulator is the one fold of an ensemble: it takes each replica's result
// in replica order, folds its per-cell tally into running first and second
// moments with Welford's algorithm and keeps its total, solver wall and
// counters, so every statistic is a function of the config alone.
type Accumulator struct {
	n          int
	mean       []float64
	m2         []float64
	totals     []float64
	solverWall time.Duration
	counters   core.Counters
}

// NewAccumulator returns an accumulator over the given cell count.
func NewAccumulator(cells int) *Accumulator {
	return &Accumulator{mean: make([]float64, cells), m2: make([]float64, cells)}
}

// Add folds the next replica's result. Its cells are walked as runs: a cell
// outside every run takes the update of a cell holding +0, so the moments are
// those of the dense mesh bit for bit. A result without cells (the null
// tally) contributes zeros.
func (a *Accumulator) Add(res *core.Result) {
	a.n++
	inv := 1 / float64(a.n)
	i, vals := 0, res.Cells.Vals
	for r, s := range res.Cells.Start {
		for ; i < int(s); i++ {
			a.update(i, 0, inv)
		}
		for ; i < int(res.Cells.End[r]); i++ {
			a.update(i, vals[0], inv)
			vals = vals[1:]
		}
	}
	for ; i < len(a.mean); i++ {
		a.update(i, 0, inv)
	}
	a.totals = append(a.totals, res.TallyTotal)
	a.solverWall += res.Wall
	a.counters.Add(&res.Counter)
}

// update is Welford's step for cell i taking value v, inv = 1/n.
func (a *Accumulator) update(i int, v, inv float64) {
	d := v - a.mean[i]
	a.mean[i] += d * inv
	a.m2[i] += d * (v - a.mean[i])
}

// variance returns the per-cell sample variances (Bessel-corrected), zero
// with fewer than two replicas.
func (a *Accumulator) variance() []float64 {
	out := make([]float64, len(a.m2))
	if a.n < 2 {
		return out
	}
	inv := 1 / float64(a.n-1)
	for i, m2 := range a.m2 {
		out[i] = m2 * inv
	}
	return out
}

// relErr returns the per-cell relative error of the mean:
// √(variance/n) / |mean|, zero where the mean is zero or with fewer than two
// replicas. This is the standard Monte Carlo R statistic that FOM is built on.
func (a *Accumulator) relErr() []float64 {
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
