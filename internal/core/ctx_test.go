package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/tally"
)

// TestRunCtxMatchesRun asserts that the cancellation plumbing is inert when
// the context is never canceled: RunCtx must reproduce Run bit for bit.
// The private tally fixes the reduction order (the atomic tally
// reassociates float adds between any two multithreaded runs), so the
// comparison is exact.
func TestRunCtxMatchesRun(t *testing.T) {
	for _, scheme := range []Scheme{OverParticles, OverEvents} {
		cfg := smallConfig(mesh.CSP)
		cfg.Scheme = scheme
		cfg.Tally = tally.ModePrivate
		plain, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctxed, err := RunCtx(context.Background(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Counter.TotalEvents() != ctxed.Counter.TotalEvents() {
			t.Errorf("%v: event counts differ: %d vs %d",
				scheme, plain.Counter.TotalEvents(), ctxed.Counter.TotalEvents())
		}
		if plain.TallyTotal != ctxed.TallyTotal {
			t.Errorf("%v: tallies differ: %v vs %v",
				scheme, plain.TallyTotal, ctxed.TallyTotal)
		}
		compareBanks(t, plain.Bank, ctxed.Bank)
	}
}

// TestRunCtxCancelBeforeStart asserts an already-canceled context aborts
// without producing a result.
func TestRunCtxCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, scheme := range []Scheme{OverParticles, OverEvents} {
		cfg := smallConfig(mesh.CSP)
		cfg.Scheme = scheme
		res, err := RunCtx(ctx, cfg, nil)
		if err == nil {
			t.Fatalf("%v: canceled context accepted", scheme)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: error %v does not wrap context.Canceled", scheme, err)
		}
		if res != nil {
			t.Fatalf("%v: canceled run returned a result", scheme)
		}
	}
}

// TestRunCtxCancelMidFlight cancels a deliberately long multi-step run and
// checks the solver notices promptly rather than running to completion.
func TestRunCtxCancelMidFlight(t *testing.T) {
	for _, scheme := range []Scheme{OverParticles, OverEvents} {
		cfg := smallConfig(mesh.CSP)
		cfg.Scheme = scheme
		cfg.NX, cfg.NY = 512, 512
		cfg.Particles = 100000
		cfg.Steps = 10 // far longer than the cancel delay allows
		ctx, cancel := context.WithCancel(context.Background())
		start := time.Now()
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		_, err := RunCtx(ctx, cfg, nil)
		elapsed := time.Since(start)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: want context.Canceled, got %v", scheme, err)
		}
		if elapsed > 5*time.Second {
			t.Errorf("%v: cancellation took %v, want prompt exit", scheme, elapsed)
		}
		cancel()
	}
}

// TestRunCtxProgress asserts the progress callback fires, reports sane
// values, and ends on a complete final report.
func TestRunCtxProgress(t *testing.T) {
	for _, scheme := range []Scheme{OverParticles, OverEvents} {
		cfg := smallConfig(mesh.CSP)
		cfg.Scheme = scheme
		cfg.Steps = 3
		var reports []Progress
		_, err := RunCtx(context.Background(), cfg, func(p Progress) {
			reports = append(reports, p)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) == 0 {
			t.Fatalf("%v: no progress reports", scheme)
		}
		for _, p := range reports {
			if p.Steps != cfg.Steps {
				t.Fatalf("%v: report has Steps=%d, want %d", scheme, p.Steps, cfg.Steps)
			}
			if p.Done < 0 || (p.Total > 0 && p.Done > p.Total) {
				t.Fatalf("%v: impossible report %+v", scheme, p)
			}
			if f := p.Fraction(); f < 0 || f > 1 {
				t.Fatalf("%v: fraction %v out of range", scheme, f)
			}
		}
		final := reports[len(reports)-1]
		if final.Step != cfg.Steps-1 {
			t.Errorf("%v: final report at step %d, want %d", scheme, final.Step, cfg.Steps-1)
		}
		if final.Done != final.Total {
			t.Errorf("%v: final report incomplete: %d/%d", scheme, final.Done, final.Total)
		}
	}
}

// TestFingerprint is the identity contract, stated once: a job is its physics
// plus the shape of what it hands back. Every physics field and every shape
// field moves the key; no execution-strategy field does, except the three
// that decide a kept bank's layout tag and slot order, and only when the bank
// is kept; Fingerprint and physicsHash agree on which configs are the same
// physics, so the one field list cannot drift from the key; and CustomDensity
// poisons cacheability.
func TestFingerprint(t *testing.T) {
	fp := func(c Config) string {
		t.Helper()
		k, ok := c.Fingerprint()
		if !ok {
			t.Fatal("hookless config reported uncacheable")
		}
		return k
	}
	type mutation struct {
		name string
		f    func(*Config)
	}
	physics := []mutation{
		{"seed", func(c *Config) { c.Seed++ }},
		{"particles", func(c *Config) { c.Particles++ }},
		{"nx", func(c *Config) { c.NX++ }},
		{"ny", func(c *Config) { c.NY++ }},
		{"steps", func(c *Config) { c.Steps++ }},
		{"timestep", func(c *Config) { c.Timestep *= 2 }},
		{"weight cutoff", func(c *Config) { c.WeightCutoff *= 2 }},
		{"energy cutoff", func(c *Config) { c.EnergyCutoff *= 2 }},
		{"xs points", func(c *Config) { c.XSPoints++ }},
		{"preset scene", func(c *Config) { c.Problem = mesh.Scatter }},
		{"inline scene", func(c *Config) { c.Scene = leakScene(t) }},
		{"custom source", func(c *Config) { c.CustomSource = &mesh.SourceBox{X0: 1, X1: 2, Y0: 1, Y1: 2} }},
		{"replica", func(c *Config) { c.Replica = 3 }},
		{"weight window", func(c *Config) { c.WeightWindow = WeightWindow{Enabled: true} }},
		{"weight window target", func(c *Config) { c.WeightWindow = WeightWindow{Enabled: true, Target: 0.5} }},
	}
	shape := []mutation{
		{"replicas", func(c *Config) { c.Replicas = 8 }},
		{"keep cells", func(c *Config) { c.KeepCells = true }},
		{"keep bank", func(c *Config) { c.KeepBank = true }},
		{"null tally", func(c *Config) { c.Tally = tally.ModeNull }},
	}
	bankOrder := []mutation{
		{"layout", func(c *Config) { c.Layout = particle.SoA }},
		{"ordering", func(c *Config) { c.Ordering = mesh.Morton }},
		{"sort every", func(c *Config) { c.SortEvery = 1 }},
	}
	strategy := []mutation{
		{"threads 1", func(c *Config) { c.Threads = 1 }},
		{"threads 2", func(c *Config) { c.Threads = 2 }},
		{"threads 8", func(c *Config) { c.Threads = 8 }},
		{"over particles", func(c *Config) { c.Scheme = OverParticles }},
		{"over events", func(c *Config) { c.Scheme = OverEvents }},
		{"static", func(c *Config) { c.Schedule.Kind = ScheduleStatic }},
		{"static chunk", func(c *Config) { c.Schedule.Kind = ScheduleStaticChunk }},
		{"dynamic", func(c *Config) { c.Schedule.Kind = ScheduleDynamic }},
		{"guided", func(c *Config) { c.Schedule.Kind = ScheduleGuided }},
		{"chunk", func(c *Config) { c.Schedule.Chunk = 128 }},
		{"private tally", func(c *Config) { c.Tally = tally.ModePrivate }},
		{"merge per step", func(c *Config) { c.MergePerStep = true }},
	}
	apply := func(base Config, m mutation) Config {
		m.f(&base)
		return base
	}

	base := Default(mesh.CSP)
	ref := fp(base)
	if fp(base) != ref {
		t.Fatal("fingerprint not deterministic")
	}
	seen := map[string]string{ref: "the base config"}
	for _, m := range append(physics, shape...) {
		k := fp(apply(base, m))
		if prev, dup := seen[k]; dup {
			t.Errorf("%s keys the same as %s", m.name, prev)
		}
		seen[k] = m.name
	}
	for _, m := range append(strategy, bankOrder...) {
		if fp(apply(base, m)) != ref {
			t.Errorf("%s moved the key of a request that keeps no bank", m.name)
		}
	}

	banked := base
	banked.KeepBank = true
	bankRef := fp(banked)
	for _, m := range bankOrder {
		k := fp(apply(banked, m))
		if prev, dup := seen[k]; dup {
			t.Errorf("%s did not move the key of a KeepBank request (keys the same as %s)", m.name, prev)
		}
		seen[k] = "keep bank + " + m.name
	}
	for _, m := range strategy {
		if fp(apply(banked, m)) != bankRef {
			t.Errorf("%s moved the key of a KeepBank request", m.name)
		}
	}

	// Shape held fixed, the key separates exactly what physicsHash separates.
	all := []Config{base}
	for _, m := range append(append(physics, strategy...), bankOrder...) {
		all = append(all, apply(base, m))
	}
	for i, a := range all {
		for _, b := range all[i+1:] {
			if (fp(a) == fp(b)) != (physicsHash(a) == physicsHash(b)) {
				t.Errorf("Fingerprint and physicsHash disagree on whether %+v and %+v are one job", a, b)
			}
		}
	}

	c := base
	c.CustomDensity = func(m *mesh.Mesh) {}
	if _, ok := c.Fingerprint(); ok {
		t.Fatal("CustomDensity config reported cacheable")
	}
}
