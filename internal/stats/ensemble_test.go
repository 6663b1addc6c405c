package stats

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/tally"
)

// testConfig is a fast ensemble configuration over the mixed csp problem.
func testConfig(replicas int) core.Config {
	cfg := core.Default(mesh.CSP)
	cfg.NX, cfg.NY = 128, 128
	cfg.Particles = 400
	cfg.Steps = 2
	cfg.Replicas = replicas
	return cfg
}

// TestSingleReplicaBitIdentical pins the acceptance contract: with
// Replicas = 1 and no weight window, the ensemble is the run itself — the
// mean per-cell map equals Run's tally bit for bit and the totals match
// exactly.
func TestSingleReplicaBitIdentical(t *testing.T) {
	cfg := testConfig(1)
	ens, err := RunEnsemble(context.Background(), cfg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	direct := cfg
	direct.KeepCells = true
	res, err := core.Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	if ens.MeanTotal != res.TallyTotal {
		t.Errorf("ensemble mean total %.17g != run total %.17g", ens.MeanTotal, res.TallyTotal)
	}
	cells := res.Cells.Dense(nil)
	if len(ens.Mean) != len(cells) {
		t.Fatalf("mean has %d cells, run has %d", len(ens.Mean), len(cells))
	}
	for i := range cells {
		if ens.Mean[i] != cells[i] {
			t.Fatalf("cell %d: ensemble mean %v != run %v", i, ens.Mean[i], cells[i])
		}
	}
	if ens.AvgRelErr != 0 || ens.TotalRelErr != 0 {
		t.Errorf("single replica reported nonzero uncertainty: avg %v total %v",
			ens.AvgRelErr, ens.TotalRelErr)
	}
}

// TestRelativeErrorScalesRootR pins the 1/√R law: quadrupling the replica
// count must halve both the average per-cell relative error and the
// total-tally relative error, within a generous tolerance for the variance
// of the variance. All runs are seeded, so the assertion is deterministic.
func TestRelativeErrorScalesRootR(t *testing.T) {
	relerr := map[int]*Ensemble{}
	for _, reps := range []int{4, 16} {
		ens, err := RunEnsemble(context.Background(), testConfig(reps), Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if ens.Replicas != reps || ens.ScoredCells == 0 {
			t.Fatalf("r%d: replicas %d, scored %d", reps, ens.Replicas, ens.ScoredCells)
		}
		relerr[reps] = ens
	}
	ratio := relerr[4].AvgRelErr / relerr[16].AvgRelErr
	if ratio < 1.5 || ratio > 2.7 {
		t.Errorf("avg relerr ratio r4/r16 = %.2f, want ~2 (1/sqrt(R))", ratio)
	}
	tratio := relerr[4].TotalRelErr / relerr[16].TotalRelErr
	if tratio < 1.2 || tratio > 3.4 {
		t.Errorf("total relerr ratio r4/r16 = %.2f, want ~2 (1/sqrt(R))", tratio)
	}
	// FOM is R-invariant for a well-behaved estimator: the error halves
	// while the cost quadruples. The reported FOM prices cost in solver
	// seconds, which on a busy host measure the host; its definition is
	// checked as written, and the invariance with the cost counted in events.
	cost := map[int]float64{}
	for reps, ens := range relerr {
		if want := 1 / (ens.AvgRelErr * ens.AvgRelErr * ens.SolverWall.Seconds()); ens.FOM != want {
			t.Errorf("r%d: FOM %v, definition gives %v", reps, ens.FOM, want)
		}
		cost[reps] = ens.AvgRelErr * ens.AvgRelErr * float64(ens.Counters.TotalEvents())
	}
	if fratio := cost[16] / cost[4]; fratio < 0.4 || fratio > 2.5 {
		t.Errorf("FOM ratio r4/r16 = %.2f with the cost in events, want ~1 (R-invariant)", fratio)
	}
}

// TestCrossReplicaCorrelation is the statistical-independence pin: under
// the replica stream-family indexing, two replicas' per-cell tallies must
// be uncorrelated. A stream-family overlap (replicas sharing variates)
// would push the correlation toward 1.
func TestCrossReplicaCorrelation(t *testing.T) {
	const reps = 4
	cells := make([][]float64, reps)
	for r := 0; r < reps; r++ {
		cfg := testConfig(1)
		cfg.Replicas = 1
		cfg.Replica = r
		cfg.KeepCells = true
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cells[r] = res.Cells.Dense(nil)
	}
	for a := 0; a < reps; a++ {
		for b := a + 1; b < reps; b++ {
			corr, n := pearson(cells[a], cells[b])
			if n < 100 {
				t.Fatalf("only %d jointly scored cells; config too small for the test", n)
			}
			// Identical runs give corr = 1; independent samples of the
			// same spatial mean give a small positive residue (shared
			// geometry). 0.5 separates the failure mode decisively.
			if math.Abs(corr) > 0.5 {
				t.Errorf("replicas %d and %d correlate at %.3f over %d cells", a, b, corr, n)
			}
		}
	}
	// Sanity: the estimator itself reports 1 for identical vectors.
	if corr, _ := pearson(cells[0], cells[0]); math.Abs(corr-1) > 1e-9 {
		t.Fatalf("pearson self-correlation %v, want 1", corr)
	}
}

// pearson computes the correlation over cells where either vector is
// nonzero, returning the count of such cells. Subtracting the spatial mean
// first removes the shared-geometry component.
func pearson(a, b []float64) (float64, int) {
	var sa, sb float64
	n := 0
	for i := range a {
		if a[i] != 0 || b[i] != 0 {
			sa += a[i]
			sb += b[i]
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	ma, mb := sa/float64(n), sb/float64(n)
	var cab, caa, cbb float64
	for i := range a {
		if a[i] != 0 || b[i] != 0 {
			da, db := a[i]-ma, b[i]-mb
			cab += da * db
			caa += da * da
			cbb += db * db
		}
	}
	if caa == 0 || cbb == 0 {
		return 0, n
	}
	return cab / math.Sqrt(caa*cbb), n
}

// TestTotalsDeterministicAcrossWorkers: per-replica totals live in replica
// order and the per-cell moments are folded in replica order, so neither may
// depend on how replicas were scheduled onto workers — every statistic is ==,
// not close.
func TestTotalsDeterministicAcrossWorkers(t *testing.T) {
	var ref *Ensemble
	for _, workers := range []int{1, 2, 5} {
		ens, err := RunEnsemble(context.Background(), testConfig(5), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = ens
			continue
		}
		for r := range ref.Totals {
			if ens.Totals[r] != ref.Totals[r] {
				t.Errorf("workers=%d: replica %d total %v != %v", workers, r, ens.Totals[r], ref.Totals[r])
			}
		}
		if ens.Counters != ref.Counters {
			t.Errorf("workers=%d: summed counters differ", workers)
		}
		for _, c := range []struct {
			name      string
			got, want []float64
		}{{"mean", ens.Mean, ref.Mean}, {"variance", ens.Variance, ref.Variance}, {"relative error", ens.RelErr, ref.RelErr}} {
			if !slices.Equal(c.got, c.want) {
				t.Errorf("workers=%d: per-cell %s differs from the one-worker fold", workers, c.name)
			}
		}
		if ens.AvgRelErr != ref.AvgRelErr || ens.MaxRelErr != ref.MaxRelErr {
			t.Errorf("workers=%d: relative error avg %v max %v, one worker %v %v",
				workers, ens.AvgRelErr, ens.MaxRelErr, ref.AvgRelErr, ref.MaxRelErr)
		}
	}
}

// TestEnsembleMeanMatchesAnalogWithWeightWindow is the ensemble-level
// unbiasedness pin: with roulette+splitting enabled, the per-cell ensemble
// means must agree with the analog ensemble means within 3σ of their
// combined uncertainty (a small tail above 3σ is expected by chance).
func TestEnsembleMeanMatchesAnalogWithWeightWindow(t *testing.T) {
	const reps = 12
	analogCfg := testConfig(reps)
	analog, err := RunEnsemble(context.Background(), analogCfg, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wwCfg := testConfig(reps)
	wwCfg.WeightWindow = core.WeightWindow{Enabled: true}
	ww, err := RunEnsemble(context.Background(), wwCfg, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	if rel := math.Abs(ww.MeanTotal-analog.MeanTotal) / analog.MeanTotal; rel > 0.02 {
		t.Errorf("weight-window mean total off by %.3g relative", rel)
	}

	checked, outliers := 0, 0
	for i := range analog.Mean {
		ma, mw := analog.Mean[i], ww.Mean[i]
		if ma == 0 && mw == 0 {
			continue
		}
		sea := analog.RelErr[i] * math.Abs(ma)
		sew := ww.RelErr[i] * math.Abs(mw)
		sigma := math.Sqrt(sea*sea + sew*sew)
		if sigma == 0 {
			continue
		}
		checked++
		if math.Abs(ma-mw) > 3*sigma {
			outliers++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d comparable cells; config too small", checked)
	}
	// 3σ admits ~0.3% by chance; 5% catches a real bias while staying
	// robust to the small-R noise on the σ estimates themselves.
	if frac := float64(outliers) / float64(checked); frac > 0.05 {
		t.Errorf("%.1f%% of %d cells disagree beyond 3 sigma (want < 5%%)", 100*frac, checked)
	}
}

// TestEnsembleRejectsBadConfigs covers the driver's error paths.
func TestEnsembleRejectsBadConfigs(t *testing.T) {
	cfg := testConfig(2)
	cfg.Tally = tally.ModeNull
	if _, err := RunEnsemble(context.Background(), cfg, Options{}); err == nil {
		t.Error("null tally accepted")
	}
	cfg = testConfig(2)
	cfg.Replica = 1
	if _, err := RunEnsemble(context.Background(), cfg, Options{}); err == nil {
		t.Error("nonzero base replica accepted")
	}
	cfg = testConfig(2)
	cfg.Particles = 0
	if _, err := RunEnsemble(context.Background(), cfg, Options{}); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestEnsembleCancellation: a canceled context must abort the ensemble with
// the context error.
func TestEnsembleCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunEnsemble(ctx, testConfig(4), Options{Workers: 2}); err == nil {
		t.Error("canceled ensemble returned a result")
	}
}

// TestEnsembleStrategyInvariant: an ensemble is a function of its physics, so
// csp at R = 4 under Morton ordering, an SoA bank, the private tally, Over
// Events and two threads folds to the row-major, AoS, atomic, Over Particles,
// one-thread ensemble in every per-cell and scalar statistic, bit for bit.
// The fold reads each replica's cells in logical order whatever the storage
// order.
func TestEnsembleStrategyInvariant(t *testing.T) {
	base := testConfig(4)
	base.Threads = 1
	variant := base
	variant.Ordering, variant.Layout, variant.Tally = mesh.Morton, particle.SoA, tally.ModePrivate
	variant.Scheme, variant.Threads = core.OverEvents, 2
	var ens [2]*Ensemble
	for i, cfg := range []core.Config{base, variant} {
		var err error
		if ens[i], err = RunEnsemble(context.Background(), cfg, Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	want, got := ens[0], ens[1]
	if want.ScoredCells == 0 {
		t.Fatal("the reference ensemble scored no cell")
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"mean", got.Mean, want.Mean}, {"variance", got.Variance, want.Variance},
		{"relative error", got.RelErr, want.RelErr}, {"totals", got.Totals, want.Totals},
		{"scalars", []float64{got.MeanTotal, got.TotalRelErr, got.AvgRelErr, got.MaxRelErr},
			[]float64{want.MeanTotal, want.TotalRelErr, want.AvgRelErr, want.MaxRelErr}},
	} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d entries, want %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.want {
			if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
				t.Fatalf("%s[%d] = %v under the variant strategy, %v under the reference", c.name, i, c.got[i], c.want[i])
			}
		}
	}
	if got.Replicas != want.Replicas || got.Cells != want.Cells || got.ScoredCells != want.ScoredCells {
		t.Errorf("replicas %d cells %d scored %d, want %d %d %d",
			got.Replicas, got.Cells, got.ScoredCells, want.Replicas, want.Cells, want.ScoredCells)
	}
}
