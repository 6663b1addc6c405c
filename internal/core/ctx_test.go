package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/mesh"
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

// TestFingerprint is the identity contract, walked over Config's three parts
// by reflection, so a field added to any part is covered with no edit here:
// every Physics field moves physicsHash and the key; every Shape field moves
// the key (physicsHash cannot see it: it takes a Physics); no Strategy field
// moves the key, except the two exceptions Fingerprint documents — a null
// tally, and Layout, Ordering and SortEvery of a KeepBank request. Every
// move keys apart from every other, and every config has a fingerprint.
func TestFingerprint(t *testing.T) {
	fp := func(c Config) string {
		t.Helper()
		k, ok := c.Fingerprint()
		if !ok {
			t.Fatal("config reported no fingerprint")
		}
		return k
	}
	physics := func(c *Config) any { return &c.Physics }
	strategy := func(c *Config) any { return &c.Strategy }
	shape := func(c *Config) any { return &c.Shape }
	bankKeyed := map[string]bool{"Layout": true, "Ordering": true, "SortEvery": true}

	// No leaf sits at a zero its part normalises (Replicas 0 ≡ 1, a window
	// knob's 0 ≡ its default), so every mutation is a real change.
	base := Default(mesh.Stream)
	base.WeightWindow = WeightWindow{Enabled: true}.withDefaults()
	base.Replicas = 2
	ref, refPhysics := fp(base), physicsHash(base.Physics)
	if fp(base) != ref {
		t.Fatal("fingerprint not deterministic")
	}
	seen := map[string]string{ref: "the base config"}
	moves := func(part string, m fieldMutation) {
		t.Helper()
		k := fp(m.cfg)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s.%s keys the same as %s", part, m.name, prev)
		}
		seen[k] = part + "." + m.name
	}
	for _, m := range fieldMutations(t, base, physics) {
		if physicsHash(m.cfg.Physics) == refPhysics {
			t.Errorf("Physics.%s did not move the physics hash", m.name)
		}
		moves("Physics", m)
	}
	for _, m := range fieldMutations(t, base, shape) {
		moves("Shape", m)
	}
	for _, m := range fieldMutations(t, base, strategy) {
		if fp(m.cfg) != ref {
			t.Errorf("Strategy.%s moved the key of a request that keeps no bank", m.name)
		}
	}
	null := base
	null.Tally = tally.ModeNull
	moves("Strategy", fieldMutation{"Tally=null", null})

	banked := base
	banked.KeepBank = true
	bankRef := fp(banked)
	for _, m := range fieldMutations(t, banked, strategy) {
		if bankKeyed[m.name] {
			moves("KeepBank+Strategy", m)
		} else if fp(m.cfg) != bankRef {
			t.Errorf("Strategy.%s moved the key of a KeepBank request", m.name)
		}
	}
}

// fieldMutation is a config that differs from a base in one leaf field.
type fieldMutation struct {
	name string
	cfg  Config
}

// fieldMutations returns one fieldMutation per leaf field of the part of
// base that part selects, walking nested structs: a bool is flipped, an
// integer incremented, a float doubled and the scene replaced. A leaf of any
// other kind fails the test, so no field is skipped silently.
func fieldMutations(t *testing.T, base Config, part func(*Config) any) []fieldMutation {
	t.Helper()
	var out []fieldMutation
	var walk func(typ reflect.Type, index []int, prefix string)
	walk = func(typ reflect.Type, index []int, prefix string) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			idx := append(index[:len(index):len(index)], i)
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, idx, prefix+f.Name+".")
				continue
			}
			c := base
			v := reflect.ValueOf(part(&c)).Elem().FieldByIndex(idx)
			switch {
			case v.Kind() == reflect.Bool:
				v.SetBool(!v.Bool())
			case v.CanInt():
				v.SetInt(v.Int() + 1)
			case v.CanUint():
				v.SetUint(v.Uint() + 1)
			case v.CanFloat():
				v.SetFloat(v.Float() * 2)
			case v.Type() == reflect.TypeOf(c.Scene):
				v.Set(reflect.ValueOf(leakScene(t)))
			default:
				t.Fatalf("no mutation for %s%s (%s)", prefix, f.Name, f.Type)
			}
			out = append(out, fieldMutation{prefix + f.Name, c})
		}
	}
	walk(reflect.TypeOf(part(&base)).Elem(), nil, "")
	return out
}
