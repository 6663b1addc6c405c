package neutral

import (
	"math"
	"testing"
)

func TestDefaultConfigRun(t *testing.T) {
	cfg, err := DefaultConfig("csp")
	if err != nil {
		t.Fatal(err)
	}
	cfg.NX, cfg.NY = 128, 128
	cfg.Particles = 300
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conservation.RelativeError > 1e-9 {
		t.Fatalf("conservation error %.3g", res.Conservation.RelativeError)
	}
	if res.Counter.TotalEvents() == 0 {
		t.Fatal("no events")
	}
}

func TestProblemParsing(t *testing.T) {
	for _, name := range []string{"stream", "scatter", "csp"} {
		if _, err := DefaultConfig(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := DefaultConfig("bogus"); err == nil {
		t.Error("bogus problem accepted")
	}
	if _, err := PaperConfig("bogus"); err == nil {
		t.Error("bogus problem accepted by PaperConfig")
	}
}

func TestPaperConfigScale(t *testing.T) {
	cfg, err := PaperConfig("scatter")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NX != 4000 || cfg.Particles != 10_000_000 {
		t.Fatalf("paper scatter config = %dx%d mesh, %d particles", cfg.NX, cfg.NY, cfg.Particles)
	}
}

func TestSchemesAgreeThroughFacade(t *testing.T) {
	base, err := DefaultConfig("scatter")
	if err != nil {
		t.Fatal(err)
	}
	base.NX, base.NY = 64, 64
	base.Particles = 500
	base.Scheme = OverParticles
	rop, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Scheme = OverEvents
	roe, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if rop.Counter.TotalEvents() != roe.Counter.TotalEvents() {
		t.Fatalf("scheme event counts differ: %d vs %d",
			rop.Counter.TotalEvents(), roe.Counter.TotalEvents())
	}
	if rel := math.Abs(rop.TallyTotal-roe.TallyTotal) / rop.TallyTotal; rel > 1e-9 {
		t.Fatalf("scheme tallies differ by %.3g", rel)
	}
}

// TestCustomDensityHook: a density field beyond the presets is a scene
// region — here a dense wall across the middle of an otherwise empty domain.
func TestCustomDensityHook(t *testing.T) {
	cfg, err := DefaultConfig("stream")
	if err != nil {
		t.Fatal(err)
	}
	cfg.NX, cfg.NY = 64, 64
	cfg.Particles = 200
	// Wall of dense material across the middle: particles must collide.
	const pitch = 2.5 / 64
	cfg.Scene = &Scene{
		Materials: []SceneMaterial{{Name: "near-vacuum", Density: 1e-30}, {Name: "wall", Density: 1e3}},
		Regions:   []SceneRegion{{Material: "wall", X0: 0, X1: 2.5, Y0: 30 * pitch, Y1: 34 * pitch}},
		Sources:   []SceneSource{{X0: 1.1875, X1: 1.3125, Y0: 1.1875, Y1: 1.3125}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counter.CollisionEvents == 0 {
		t.Fatal("custom dense wall produced no collisions")
	}
	if res.Conservation.RelativeError > 1e-9 {
		t.Fatalf("conservation broken with custom density: %.3g", res.Conservation.RelativeError)
	}
}

// TestCustomSourceHook: a birth region beyond the presets is a scene source.
func TestCustomSourceHook(t *testing.T) {
	cfg, err := DefaultConfig("stream")
	if err != nil {
		t.Fatal(err)
	}
	cfg.NX, cfg.NY = 64, 64
	cfg.Particles = 50
	cfg.KeepBank = true
	cfg.Scene = &Scene{
		Materials: []SceneMaterial{{Name: "near-vacuum", Density: 1e-30}},
		Sources:   []SceneSource{{X0: 0.1, X1: 0.2, Y0: 2.0, Y1: 2.1}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bank == nil || res.Bank.Len() != cfg.Particles {
		t.Fatal("bank not kept")
	}
}

func TestPredictDevices(t *testing.T) {
	preds, err := PredictDevices("csp", "over-particles")
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 5 {
		t.Fatalf("predicted %d devices, want 5", len(preds))
	}
	byName := map[string]DevicePrediction{}
	for _, p := range preds {
		if p.Seconds <= 0 {
			t.Errorf("%s: non-positive runtime %v", p.Device, p.Seconds)
		}
		byName[p.Device] = p
	}
	if byName["p100"].Seconds >= byName["broadwell"].Seconds {
		t.Error("P100 should beat Broadwell (paper Fig 14)")
	}
	if _, err := PredictDevices("bogus", "op"); err == nil {
		t.Error("bogus problem accepted")
	}
	if _, err := PredictDevices("csp", "bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
}

func TestExperimentsListed(t *testing.T) {
	ids := Experiments()
	if len(ids) != 18 {
		t.Fatalf("%d experiments, want 18", len(ids))
	}
	fig, err := RunExperiment("text-search", "quick")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) == 0 {
		t.Fatal("experiment produced no rows")
	}
	if _, err := RunExperiment("fig99", "quick"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := RunExperiment("fig09", "gigantic"); err == nil {
		t.Error("unknown scale accepted")
	}
}
