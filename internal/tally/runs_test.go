package tally

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestRunsOfIsCompact: the runs a finish builds from a tally's sparse view are
// the runs of its dense cells, field for field, nil slices when nothing was
// deposited, and Dense gives the dense cells back.
func TestRunsOfIsCompact(t *testing.T) {
	rnd := rand.New(rand.NewSource(66))
	for trial := 0; trial < 300; trial++ {
		n := rnd.Intn(3000)
		tly := NewScaled(ModeAtomic, n, 1, ScaleFor(1e6))
		for d := rnd.Intn(40); d > 0 && n > 0; d-- {
			// Clusters of neighbours, so runs merge as well as stand alone.
			c := rnd.Intn(n)
			for w := rnd.Intn(12); w >= 0 && c < n; w, c = w-1, c+1 {
				tly.Add(0, c, rnd.ExpFloat64())
			}
		}
		cells := values(tly, ScaleFor(1e6))
		if cells == nil {
			cells = make([]float64, n)
		}
		got, want := RunsOf(n, tly.NonZero(nil), ScaleFor(1e6)), Compact(cells)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: RunsOf %+v, Compact %+v", trial, got, want)
		}
		if dense := got.Dense(make([]float64, 5, n+5)); !reflect.DeepEqual(dense, cells) {
			t.Fatalf("trial %d: Dense differs from the cells", trial)
		}
	}
}
