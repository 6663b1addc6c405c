package stats

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mesh"
)

// Epoch agreement. The canonical segment arithmetic changed once, on purpose
// (DESIGN.md §17: reciprocal multiplies for the facet distance and the census
// clock, the collision decided in mean free paths). The goldens pin the new
// arithmetic to itself; this test ties it back to the old one statistically.
// The constants are the R = 32 ensemble mean and standard error of TallyTotal
// at the golden scale (64², 200 particles, 2 steps, one thread), recorded
// from the last commit of the division arithmetic with the same RunEnsemble
// call. The new arithmetic's ensemble mean must lie within 3 σ of the old
// one, and every replica must still conserve energy to 1e-12.
//
// Stream deposits nothing in either epoch. Scatter deposits everything it was
// born with, so its σ is rounding noise around 2e9 (an ulp there is 2.4e-7);
// the comparison therefore never asks for better than the conservation
// tolerance itself.
var epoch1 = map[mesh.Problem]struct{ mean, stderr float64 }{
	mesh.Stream:  {0, 0},
	mesh.Scatter: {2000000000, 3.7848987281379252e-08},
	mesh.CSP:     {1583861872.1824961, 8086549.9410168407},
}

func TestEpochAgreement(t *testing.T) {
	const replicas, conservationTol = 32, 1e-12
	for _, p := range []mesh.Problem{mesh.Stream, mesh.Scatter, mesh.CSP} {
		cfg := core.Default(p)
		cfg.NX, cfg.NY = 64, 64
		cfg.Particles = 200
		cfg.Steps = 2
		cfg.Replicas = replicas
		ens, err := RunEnsemble(context.Background(), cfg, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		old := epoch1[p]
		tol := math.Max(3*old.stderr, conservationTol*math.Abs(old.mean))
		if d := math.Abs(ens.MeanTotal - old.mean); d > tol {
			t.Errorf("%v: ensemble mean %.17g is %.3g from epoch 1's %.17g (3σ = %.3g)",
				p, ens.MeanTotal, d, old.mean, 3*old.stderr)
		}

		single := cfg
		single.Replicas = 1
		for r := 0; r < replicas; r++ {
			single.Replica = r
			res, err := core.Run(single)
			if err != nil {
				t.Fatal(err)
			}
			if res.Conservation.RelativeError > conservationTol {
				t.Errorf("%v replica %d: conservation error %.3g", p, r, res.Conservation.RelativeError)
			}
			if res.TallyTotal != ens.Totals[r] {
				t.Errorf("%v replica %d: run total %.17g, ensemble recorded %.17g", p, r, res.TallyTotal, ens.Totals[r])
			}
		}
	}
}
