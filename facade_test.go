package neutral

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// TestFacadeErrorPaths sweeps every facade entry point with unknown
// identifiers: each must fail loudly instead of falling back to a default.
func TestFacadeErrorPaths(t *testing.T) {
	for _, problem := range []string{"", "bogus", "CSP", "csp ", "neutronics"} {
		if _, err := DefaultConfig(problem); err == nil {
			t.Errorf("DefaultConfig(%q) accepted", problem)
		}
		if _, err := PaperConfig(problem); err == nil {
			t.Errorf("PaperConfig(%q) accepted", problem)
		}
	}
	if _, err := PredictDevices("bogus", "over-particles"); err == nil {
		t.Error("PredictDevices with unknown problem accepted")
	}
	if _, err := PredictDevices("csp", "bogus"); err == nil {
		t.Error("PredictDevices with unknown scheme accepted")
	}
	if _, err := PredictDevices("", ""); err == nil {
		t.Error("PredictDevices with empty identifiers accepted")
	}
	if _, err := RunExperiment("fig99", "quick"); err == nil {
		t.Error("RunExperiment with unknown experiment accepted")
	}
	if _, err := RunExperiment("", "quick"); err == nil {
		t.Error("RunExperiment with empty experiment accepted")
	}
	known := Experiments()
	if len(known) == 0 {
		t.Fatal("no experiments listed")
	}
	if _, err := RunExperiment(known[0], "bogus-scale"); err == nil {
		t.Error("RunExperiment with unknown scale accepted")
	}
}

// TestRunRejectsInvalidConfig checks Run surfaces validation errors from
// hand-built configs.
func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg, err := DefaultConfig("csp")
	if err != nil {
		t.Fatal(err)
	}
	bad := []func(Config) Config{
		func(c Config) Config { c.Particles = 0; return c },
		func(c Config) Config { c.NX = -1; return c },
		func(c Config) Config { c.Timestep = 0; return c },
		func(c Config) Config { c.Steps = 0; return c },
		func(c Config) Config { c.WeightCutoff = 2; return c },
		func(c Config) Config { c.Threads = -3; return c },
	}
	for i, mutate := range bad {
		if _, err := Run(mutate(cfg)); err == nil {
			t.Errorf("invalid config %d accepted", i)
		}
	}
}

// TestServiceEquivalence is the acceptance bit-identity check: a job run
// through the serving engine must produce exactly the tally a direct Run
// produces for the same config and seed. The private tally merges worker
// shards in a fixed order and the static schedule fixes the
// particle-to-worker map, so the comparison is exact even multithreaded.
func TestServiceEquivalence(t *testing.T) {
	cfg, err := DefaultConfig("scatter")
	if err != nil {
		t.Fatal(err)
	}
	cfg.NX, cfg.NY = 64, 64
	cfg.Particles = 500
	cfg.Threads = 2
	cfg.Tally = TallyPrivate
	cfg.KeepCells = true

	direct, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	svc := NewService(ServiceOptions{Shards: 2})
	defer svc.Close()
	job, err := svc.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	served, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}

	if served.TallyTotal != direct.TallyTotal {
		t.Errorf("service tally %v != direct %v (must be bit-identical)",
			served.TallyTotal, direct.TallyTotal)
	}
	if served.Counter != direct.Counter {
		t.Errorf("counters differ:\nservice %+v\ndirect  %+v", served.Counter, direct.Counter)
	}
	if !reflect.DeepEqual(served.Cells, direct.Cells) {
		t.Fatalf("cells differ: %+v vs %+v (must be bit-identical)", served.Cells, direct.Cells)
	}

	// A repeat submission is served from the cache: same result object,
	// no second solve.
	again, err := svc.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := again.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	cached, err := again.Result()
	if err != nil {
		t.Fatal(err)
	}
	if cached != served {
		t.Error("repeat submission was re-solved instead of cached")
	}
	if runs := svc.Stats().Runs; runs != 1 {
		t.Errorf("solver executed %d times, want 1", runs)
	}
}

// TestFacadeRunCtxCancel exercises the re-exported cancelable entry point.
func TestFacadeRunCtxCancel(t *testing.T) {
	cfg, err := DefaultConfig("csp")
	if err != nil {
		t.Fatal(err)
	}
	cfg.NX, cfg.NY = 512, 512
	cfg.Particles = 200000
	cfg.Steps = 10
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := RunCtx(ctx, cfg, nil); err == nil {
		t.Fatal("canceled run returned no error")
	}
	var reports int
	cfg.Steps = 1
	cfg.Particles = 300
	if _, err := RunCtx(context.Background(), cfg, func(*Simulation) { reports++ }); err != nil {
		t.Fatal(err)
	}
	if reports != cfg.Steps {
		t.Fatalf("%d step reports, want one per step", reports)
	}
}
