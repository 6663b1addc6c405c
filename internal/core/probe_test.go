package core

import (
	"maps"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/tally"
)

// recordingProbe checks the RegionProbe contract: strictly paired, never
// nested, canonical phase names.
type recordingProbe struct {
	t      *testing.T
	open   string
	counts map[string]int
}

func (p *recordingProbe) StartRegion(name string) {
	if p.open != "" {
		p.t.Errorf("region %q started inside %q", name, p.open)
	}
	p.open = name
}

func (p *recordingProbe) EndRegion(name string) {
	if p.open != name {
		p.t.Errorf("region %q ended while %q open", name, p.open)
	}
	p.open = ""
	if p.counts == nil {
		p.counts = make(map[string]int)
	}
	p.counts[name]++
}

// TestRegionProbeCoverage runs each scheme with every optional phase enabled
// and checks the probe observes exactly the phases the timing accumulators
// report, under their canonical names.
func TestRegionProbeCoverage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme Scheme
		expect []string
	}{
		{"over-particles", OverParticles, []string{"fused", "control", "sort", "merge"}},
		{"over-events", OverEvents, []string{"event-kernel", "collision-kernel", "facet-kernel", "tally-kernel", "control", "sort", "merge"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goldenConfig(mesh.CSP)
			cfg.Scheme = tc.scheme
			cfg.SortEvery = 1
			cfg.Tally = tally.ModePrivate
			cfg.MergePerStep = true
			cfg.WeightWindow = WeightWindow{Enabled: true}
			sim, err := NewSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			probe := &recordingProbe{t: t}
			sim.SetRegionProbe(probe)
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if probe.open != "" {
				t.Errorf("region %q left open at end of run", probe.open)
			}
			for _, want := range tc.expect {
				if probe.counts[want] == 0 {
					t.Errorf("phase %q never probed (saw %v)", want, probe.counts)
				}
			}
			// Every probed name must be canonical, and each probed phase
			// must also carry nonzero accumulated wall time.
			walls := map[string]bool{}
			res.Phases.Each(func(name string, _ time.Duration) { walls[name] = true })
			for name := range probe.counts {
				if !walls[name] {
					t.Errorf("probed phase %q has zero wall time", name)
				}
			}
			valid := map[string]bool{"event-kernel": true, "collision-kernel": true,
				"facet-kernel": true, "tally-kernel": true, "fused": true,
				"merge": true, "control": true, "sort": true}
			for name := range probe.counts {
				if !valid[name] {
					t.Errorf("probe saw unknown region %q", name)
				}
			}
		})
	}
}

// TestRegionProbeCountsPerStep pins how many regions one step reports at one
// thread, the launches a region-counting probe sees. With the window, the
// sort and the per-step merge on, every step reports one control, one sort
// and one merge pass; Over Particles adds exactly one fused launch, and Over
// Events each per-round kernel once per round of the step (its OERounds
// delta) and one tally kernel.
func TestRegionProbeCountsPerStep(t *testing.T) {
	for _, scheme := range []Scheme{OverParticles, OverEvents} {
		cfg := goldenConfig(mesh.CSP)
		cfg.Scheme, cfg.Threads, cfg.Steps = scheme, 1, 3
		cfg.SortEvery = 1
		cfg.Tally = tally.ModePrivate
		cfg.MergePerStep = true
		cfg.WeightWindow = WeightWindow{Enabled: true}
		sim, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		probe := &recordingProbe{t: t}
		sim.SetRegionProbe(probe)
		var total uint64
		for !sim.Done() {
			probe.counts = nil
			before := sim.r.workers[0].c.OERounds
			if err := sim.Step(); err != nil {
				t.Fatal(err)
			}
			rounds := sim.r.workers[0].c.OERounds - before
			total += rounds
			want := map[string]int{"control": 1, "sort": 1, "merge": 1}
			if scheme == OverParticles {
				want["fused"] = 1
			} else if rounds > 0 {
				n := int(rounds)
				want["event-kernel"], want["collision-kernel"], want["facet-kernel"] = n, n, n
				want["tally-kernel"] = 1
			}
			if !maps.Equal(probe.counts, want) {
				t.Errorf("%v step %d: probe saw %v, want %v", scheme, sim.StepIndex()-1, probe.counts, want)
			}
		}
		if scheme == OverEvents && total == 0 {
			t.Error("over-events: no step ran a round")
		}
	}
}
