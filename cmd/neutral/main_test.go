package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/tally"
)

func parse(t *testing.T, args ...string) (*runFlags, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := registerRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f, fs
}

func TestConfigDefaults(t *testing.T) {
	f, _ := parse(t)
	cfg, err := f.config(false)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Default(mesh.CSP)
	if cfg.Scene != want.Scene || cfg.NX != want.NX || cfg.Particles != want.Particles {
		t.Errorf("default config drifted: %+v", cfg)
	}
	if cfg.Scheme != core.OverParticles || cfg.Layout != particle.AoS || cfg.Tally != tally.ModeAtomic {
		t.Errorf("default strategy drifted")
	}
}

func TestConfigFullBlock(t *testing.T) {
	f, _ := parse(t,
		"-problem", "scatter", "-scheme", "oe", "-schedule", "dynamic",
		"-chunk", "16", "-layout", "soa", "-tally", "private")
	cfg, err := f.config(true)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scene != core.Default(mesh.Scatter).Scene || cfg.Particles != 10_000_000 {
		t.Errorf("paper scatter scale not applied: %+v", cfg)
	}
	if cfg.Scheme != core.OverEvents || cfg.Layout != particle.SoA || cfg.Tally != tally.ModePrivate {
		t.Errorf("strategy flags not applied")
	}
	if cfg.Schedule.Kind != core.ScheduleDynamic || cfg.Schedule.Chunk != 16 {
		t.Errorf("schedule flags not applied: %+v", cfg.Schedule)
	}
}

func TestConfigSceneFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "box.json")
	const body = `{
		"name": "box",
		"materials": [{"name": "air", "density": 1e-10}],
		"sources": [{"x0": 1.0, "x1": 1.5, "y0": 1.0, "y1": 1.5}],
		"boundaries": {"x_hi": "vacuum"}
	}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	f, _ := parse(t, "-scene", path)
	cfg, err := f.config(false)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scene == nil || cfg.Scene.Name != "box" || !cfg.Scene.HasVacuum() {
		t.Fatalf("scene file not loaded into config: %+v", cfg.Scene)
	}
	if describe(cfg) != "box" {
		t.Errorf("Describe = %q, want box", describe(cfg))
	}
	// The config must validate and run end to end under the scene.
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-problem", "bogus"},
		{"-scheme", "bogus"},
		{"-schedule", "bogus"},
		{"-layout", "bogus"},
		{"-tally", "bogus"},
		{"-scene", "/does/not/exist.json"},
	} {
		f, _ := parse(t, args...)
		if _, err := f.config(false); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}

func TestDescribePreset(t *testing.T) {
	cfg := core.Default(mesh.Stream)
	if describe(cfg) != "stream" {
		t.Errorf("describe(stream) = %q", describe(cfg))
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Validation keeps the preset scene, so the label must not change.
	if describe(cfg) != "stream" {
		t.Errorf("describe(validated stream) = %q", describe(cfg))
	}
}
