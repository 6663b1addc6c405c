package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/scene"
)

// leakScene is the pinned vacuum-leakage geometry: the csp layout with the
// +x and +y edges opened to vacuum, so streaming histories mix collisions,
// reflections (at the closed edges) and escapes (at the open ones).
func leakScene(t *testing.T) *scene.Scene {
	t.Helper()
	s := &scene.Scene{
		Name: "leak-golden",
		Materials: []scene.Material{
			{Name: "near-vacuum", Density: mesh.VacuumDensity},
			{Name: "dense", Density: mesh.DenseDensity},
		},
		Regions: []scene.Region{
			{Material: "dense", X0: mesh.Extent / 3, X1: 2 * mesh.Extent / 3,
				Y0: mesh.Extent / 3, Y1: 2 * mesh.Extent / 3},
		},
		Sources:    []scene.Source{{X0: 0, X1: mesh.Extent / 10, Y0: 0, Y1: mesh.Extent / 10}},
		Boundaries: scene.Boundaries{XHi: "vacuum", YHi: "vacuum"},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// leakConfig is goldenConfig over the leak scene.
func leakConfig(t *testing.T) Config {
	cfg := goldenConfig(mesh.CSP)
	cfg.Scene = leakScene(t)
	return cfg
}

// TestVacuumSceneSchemeEquivalence: Over Particles ≡ Over Events must hold
// under vacuum boundaries too — escapes retire histories from the OE active
// set exactly where OP ends them, per-edge leakage included, across both
// layouts and thread counts.
func TestVacuumSceneSchemeEquivalence(t *testing.T) {
	ref := leakConfig(t)
	ref.Scheme = OverParticles
	rop, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if rop.Counter.Escapes == 0 {
		t.Fatal("leak scene produced no escapes; the test geometry is broken")
	}
	for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/threads=%d", layout, threads), func(t *testing.T) {
				cfg := leakConfig(t)
				cfg.Scheme = OverEvents
				cfg.Layout = layout
				cfg.Threads = threads
				roe, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				compareBanks(t, rop.Bank, roe.Bank)
				if rop.Counter.Escapes != roe.Counter.Escapes ||
					rop.Counter.Deaths != roe.Counter.Deaths ||
					rop.Counter.TotalEvents() != roe.Counter.TotalEvents() ||
					rop.Counter.Reflections != roe.Counter.Reflections {
					t.Errorf("counters differ:\nop %+v\noe %+v", rop.Counter, roe.Counter)
				}
				if rop.Leakage != roe.Leakage {
					t.Errorf("leakage differs:\nop %+v\noe %+v", rop.Leakage, roe.Leakage)
				}
				if roe.Conservation.RelativeError > 1e-9 {
					t.Errorf("conservation error %.3g under leakage", roe.Conservation.RelativeError)
				}
			})
		}
	}
}

// TestEscapedRetireFromBank: escaped particles are terminal — they are not
// revived at census boundaries, carry no weight, and CountStatus folds them
// into the dead population.
func TestEscapedRetireFromBank(t *testing.T) {
	cfg := leakConfig(t)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var p particle.Particle
	escaped := 0
	for i := 0; i < res.Bank.Len(); i++ {
		res.Bank.Load(i, &p)
		if p.Status != particle.Escaped {
			continue
		}
		escaped++
		if p.Weight != 0 {
			t.Fatalf("escaped particle %d retains weight %g", i, p.Weight)
		}
	}
	if uint64(escaped) != res.Counter.Escapes {
		t.Errorf("bank holds %d escaped, counter says %d", escaped, res.Counter.Escapes)
	}
	if res.Leakage.TotalWeight() <= 0 {
		t.Error("no leaked weight recorded")
	}
}

// TestFingerprintSceneEquivalence: a config naming a problem preset and one
// carrying a physically identical inline scene share a fingerprint (the
// cache-hit property), renamed materials don't split the key, and any
// physics difference does.
func TestFingerprintSceneEquivalence(t *testing.T) {
	fp := func(c Config) string {
		k, ok := c.Fingerprint()
		if !ok {
			t.Fatal("hookless config reported uncacheable")
		}
		return k
	}
	preset := Default(mesh.CSP)

	inline := Default(mesh.CSP)
	inline.Scene = &scene.Scene{
		Name: "my-csp", // cosmetic: must not split the key
		Materials: []scene.Material{
			{Name: "void", Density: mesh.VacuumDensity}, // renamed materials
			{Name: "block", Density: mesh.DenseDensity},
		},
		Regions: []scene.Region{
			{Material: "block", X0: mesh.Extent / 3, X1: 2 * mesh.Extent / 3,
				Y0: mesh.Extent / 3, Y1: 2 * mesh.Extent / 3},
		},
		Sources: []scene.Source{{X0: 0, X1: mesh.Extent / 10, Y0: 0, Y1: mesh.Extent / 10}},
	}
	if fp(preset) != fp(inline) {
		t.Error("equivalent inline scene fingerprints differently from the preset")
	}
	// The Problem field is ignored once a scene is set.
	inline2 := inline
	inline2.Problem = mesh.Stream
	if fp(inline2) != fp(inline) {
		t.Error("problem enum leaked into a scene-driven fingerprint")
	}

	leaky := inline
	leakySc := *inline.Scene
	leakySc.Boundaries = scene.Boundaries{XHi: "vacuum"}
	leaky.Scene = &leakySc
	if fp(leaky) == fp(inline) {
		t.Error("boundary change did not move the fingerprint")
	}
}

// TestValidateResolvesPresetScene: Validate attaches the problem's preset
// scene so every downstream layer sees a non-nil scene, and rejects unknown
// problems.
func TestValidateResolvesPresetScene(t *testing.T) {
	cfg := Default(mesh.Scatter)
	if cfg.Scene != nil {
		t.Fatal("Default should leave Scene nil")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Scene == nil || cfg.Scene.Name != "scatter" {
		t.Fatalf("Validate did not resolve the preset scene: %+v", cfg.Scene)
	}
	bad := Default(mesh.Problem(42))
	if err := bad.Validate(); err == nil {
		t.Error("unknown problem preset accepted")
	}
}

// TestWeightedJitteredSceneConservation: a multi-source scene with weighted,
// jittered sources still conserves energy exactly — the audit baselines come
// from the sampled records, not the paper's fixed birth constants.
func TestWeightedJitteredSceneConservation(t *testing.T) {
	s := &scene.Scene{
		Materials: []scene.Material{{Name: "m", Density: 200}},
		Sources: []scene.Source{
			{X0: 0.2, X1: 0.7, Y0: 0.2, Y1: 0.7, Share: 2, Weight: 1.5, EnergyJitter: 0.3},
			{X0: 1.8, X1: 2.3, Y0: 1.8, Y1: 2.3, Share: 1, Weight: 0.25, Energy: 5e6, TimeJitter: 0.8, WeightJitter: 0.2},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{OverParticles, OverEvents} {
		cfg := goldenConfig(mesh.CSP)
		cfg.Scene = s
		cfg.Scheme = scheme
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Conservation.RelativeError > 1e-9 {
			t.Errorf("%v: conservation error %.3g", scheme, res.Conservation.RelativeError)
		}
		if res.Conservation.BirthWeight == float64(cfg.Particles) {
			t.Errorf("%v: weighted sources should move the birth weight off %d", scheme, cfg.Particles)
		}
		if math.Abs(res.Conservation.BirthWeight-(2.0/3*1.5+1.0/3*0.25)*float64(cfg.Particles)) >
			0.25*float64(cfg.Particles) {
			t.Errorf("%v: birth weight %g far from the share-weighted expectation", scheme, res.Conservation.BirthWeight)
		}
	}
}
