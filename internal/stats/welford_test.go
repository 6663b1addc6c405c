package stats

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tally"
)

// denseFold is the reference fold: Welford's algorithm over each replica's
// dense mesh, cell by cell, with the variance and relative error written out
// from the moments.
type denseFold struct {
	n        int
	mean, m2 []float64
}

func (f *denseFold) add(cells []float64) {
	f.n++
	inv := 1 / float64(f.n)
	for i := range f.mean {
		v := cells[i]
		d := v - f.mean[i]
		f.mean[i] += d * inv
		f.m2[i] += d * (v - f.mean[i])
	}
}

func (f *denseFold) stats() (variance, relErr []float64) {
	variance, relErr = make([]float64, len(f.mean)), make([]float64, len(f.mean))
	if f.n < 2 {
		return variance, relErr
	}
	vinv, rinv := 1/float64(f.n-1), 1/float64(f.n-1)/float64(f.n)
	for i, m2 := range f.m2 {
		variance[i] = m2 * vinv
		if f.mean[i] != 0 {
			relErr[i] = math.Sqrt(m2*rinv) / math.Abs(f.mean[i])
		}
	}
	return variance, relErr
}

// randomMesh draws n cells, about half of them zero, the rest spread over
// normal magnitudes, subnormals and -0. With edges set, the first and last
// cells are non-zero, so runs start at cell 0 and end at the last cell.
func randomMesh(rng *rand.Rand, n int, edges bool) []float64 {
	cells := make([]float64, n)
	for i := range cells {
		switch rng.Intn(8) {
		case 0, 1, 2, 3:
		case 4:
			cells[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
		case 5:
			cells[i] = math.Copysign(0, -1)
		default:
			cells[i] = rng.ExpFloat64() * math.Ldexp(1, rng.Intn(40)-20)
		}
	}
	if edges && n > 0 {
		cells[0], cells[n-1] = 1+rng.Float64(), math.SmallestNonzeroFloat64
	}
	return cells
}

// splitRuns cuts every run of two or more cells in two at its middle: runs
// that are adjacent rather than maximal, over the same mesh.
func splitRuns(r tally.Runs) tally.Runs {
	out := tally.Runs{N: r.N, Vals: r.Vals}
	for i, s := range r.Start {
		if e := r.End[i]; e-s >= 2 {
			m := s + (e-s)/2
			out.Start, out.End = append(out.Start, s, m), append(out.End, m, e)
		} else {
			out.Start, out.End = append(out.Start, s), append(out.End, e)
		}
	}
	return out
}

// TestAccumulatorMatchesDenseFold: Add walks each replica's runs over the
// dense moments, and the ensemble it returns must be the reference fold of
// the dense meshes bit for bit, with the totals, solver wall and counters
// summed in replica order. Replicas cover runs at cell 0 and at the last
// cell, adjacent runs, subnormal values and -0, a mesh with no runs and a
// result without cells (the null tally); widths include R = 1.
func TestAccumulatorMatchesDenseFold(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		reps := 1 + rng.Intn(6)
		if trial%5 == 0 {
			reps = 1
		}
		acc := NewAccumulator(n)
		ref := denseFold{mean: make([]float64, n), m2: make([]float64, n)}
		var (
			totals []float64
			wall   time.Duration
			ctrs   core.Counters
		)
		for r := 0; r < reps; r++ {
			res := &core.Result{
				TallyTotal: rng.ExpFloat64(),
				Wall:       time.Duration(rng.Int63n(int64(time.Second))),
				Counter:    core.Counters{FacetEvents: rng.Uint64() >> 8, Segments: uint64(r)},
			}
			cells := make([]float64, n)
			switch rng.Intn(6) {
			case 0: // no runs
				res.Cells = tally.Runs{N: n}
			case 1: // no cells at all: a null tally's result
			case 2:
				cells = randomMesh(rng, n, true)
				res.Cells = splitRuns(tally.Compact(cells))
			default:
				cells = randomMesh(rng, n, rng.Intn(2) == 0)
				res.Cells = tally.Compact(cells)
			}
			acc.Add(res)
			ref.add(cells)
			totals = append(totals, res.TallyTotal)
			wall += res.Wall
			ctrs.Add(&res.Counter)
		}

		ens := acc.Ensemble(time.Minute)
		variance, relErr := ref.stats()
		for _, c := range []struct {
			name      string
			got, want []float64
		}{{"mean", ens.Mean, ref.mean}, {"variance", ens.Variance, variance}, {"relative error", ens.RelErr, relErr}, {"totals", ens.Totals, totals}} {
			if len(c.got) != len(c.want) {
				t.Fatalf("trial %d: %s has %d entries, want %d", trial, c.name, len(c.got), len(c.want))
			}
			for i := range c.want {
				if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
					t.Fatalf("trial %d (R=%d): %s[%d] = %v, reference %v", trial, reps, c.name, i, c.got[i], c.want[i])
				}
			}
		}
		if ens.Replicas != reps || ens.Cells != n || ens.SolverWall != wall || ens.Wall != time.Minute || ens.Counters != ctrs {
			t.Fatalf("trial %d: replicas %d cells %d solver wall %v wall %v, want %d %d %v %v; counters equal %v",
				trial, ens.Replicas, ens.Cells, ens.SolverWall, ens.Wall, reps, n, wall, time.Minute, ens.Counters == ctrs)
		}
	}
}
