package particle

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomBank fills an n-slot bank of the given layout with distinguishable
// records: every field derives from the slot's original index so a permuted
// bank can be checked record by record.
func randomBank(t *testing.T, layout Layout, n int, r *rand.Rand) *Bank {
	t.Helper()
	b := NewBank(layout, n)
	for i := 0; i < n; i++ {
		p := Particle{
			X: r.Float64(), Y: r.Float64(), UX: r.Float64(), UY: r.Float64(),
			Energy: 1e7 * r.Float64(), Weight: r.Float64(),
			MFPToCollision: r.Float64(), TimeToCensus: r.Float64(),
			Deposit: r.Float64(), CachedSigmaA: r.Float64(), CachedSigmaS: r.Float64(),
			CellX: int32(r.Intn(64)), CellY: int32(r.Intn(64)), XSIndex: int32(r.Intn(100)),
			RNGCounter: r.Uint64(), ID: uint64(i),
			Status: Status(r.Intn(4)),
		}
		b.Store(i, &p)
	}
	return b
}

// TestPermuteIsPermutation checks, for both layouts, that Permute places
// old[perm[i]] at slot i exactly — every field of every record, including the
// RNG stream identity (ID) and counter, so a sorted bank replays the same
// per-history variate sequences — and that totals over the bank are
// preserved as a multiset.
func TestPermuteIsPermutation(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, layout := range []Layout{AoS, SoA} {
		for _, n := range []int{1, 2, 17, 256} {
			t.Run(fmt.Sprintf("%v/n=%d", layout, n), func(t *testing.T) {
				b := randomBank(t, layout, n, r)
				old := make([]Particle, n)
				for i := 0; i < n; i++ {
					b.Load(i, &old[i])
				}
				wantW, wantE := b.SumFrom(0, 0, 0)

				perm := make([]int32, n)
				for i, v := range r.Perm(n) {
					perm[i] = int32(v)
				}
				want := make([]Particle, n)
				for i := range want {
					want[i] = old[perm[i]]
				}
				b.Permute(perm)

				var got Particle
				for i := 0; i < n; i++ {
					b.Load(i, &got)
					if got != want[i] {
						t.Fatalf("slot %d: got %+v, want %+v", i, got, want[i])
					}
				}
				// Multiset-preserving: the conservation aggregates cannot
				// move by more than FP reassociation of the slot order.
				gotW, gotE := b.SumFrom(0, 0, 0)
				if !approxEqual(gotW, wantW) {
					t.Errorf("total weight %g, want %g", gotW, wantW)
				}
				if !approxEqual(gotE, wantE) {
					t.Errorf("total energy %g, want %g", gotE, wantE)
				}
				for i := range perm {
					if perm[i] != -1 {
						t.Fatalf("perm[%d] = %d, want consumed (-1)", i, perm[i])
					}
				}
			})
		}
	}
}

func approxEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return d <= 1e-12*scale
}

// TestPermuteIdentity checks the no-op permutation leaves the bank intact.
func TestPermuteIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, layout := range []Layout{AoS, SoA} {
		b := randomBank(t, layout, 32, r)
		var before, after Particle
		olds := make([]Particle, 32)
		for i := range olds {
			b.Load(i, &olds[i])
		}
		perm := make([]int32, 32)
		for i := range perm {
			perm[i] = int32(i)
		}
		b.Permute(perm)
		for i := range olds {
			before = olds[i]
			b.Load(i, &after)
			if before != after {
				t.Fatalf("%v: identity permutation moved slot %d", layout, i)
			}
		}
	}
}
