package core

import (
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/telemetry"
)

// TestStepTraceHook verifies every Step records its own timing: LastStep
// read at each boundary names that step, the per-step walls and phases sum to
// the run's cumulative totals, and a stepwise run stays bit-identical to Run.
func TestStepTraceHook(t *testing.T) {
	for _, scheme := range []Scheme{OverParticles, OverEvents} {
		cfg := smallConfig(mesh.CSP)
		cfg.Scheme = scheme
		cfg.Steps = 3

		base, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}

		sim, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var timings []StepTiming
		for !sim.Done() {
			if err := sim.Step(); err != nil {
				t.Fatal(err)
			}
			timings = append(timings, sim.LastStep())
		}
		res := sim.Finalize()

		var wall time.Duration
		var phases PhaseTimings
		for i, st := range timings {
			if st.Step != i {
				t.Errorf("%v: timing %d has Step %d", scheme, i, st.Step)
			}
			if st.Wall <= 0 {
				t.Errorf("%v: step %d wall %v, want > 0", scheme, i, st.Wall)
			}
			if st.Phases.Total() == 0 {
				t.Errorf("%v: step %d has empty phase breakdown", scheme, i)
			}
			wall += st.Wall
			phases = phases.Add(st.Phases)
		}
		if wall != res.Wall {
			t.Errorf("%v: step walls sum to %v, result wall %v", scheme, wall, res.Wall)
		}
		if phases != res.Phases {
			t.Errorf("%v: step phases sum to %+v, result phases %+v", scheme, phases, res.Phases)
		}
		if res.TallyTotal != base.TallyTotal || res.Counter != base.Counter {
			t.Errorf("%v: stepwise run diverged from Run", scheme)
		}
	}
}

// TestTraceHookMidRunAttach verifies a read of LastStep mid-run sees the
// step just completed alone, not the run so far.
func TestTraceHookMidRunAttach(t *testing.T) {
	cfg := smallConfig(mesh.Scatter)
	cfg.Steps = 3
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	before, phases := sim.Elapsed(), sim.LastStep().Phases
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	st := sim.LastStep()
	if st.Step != 1 {
		t.Errorf("mid-run read names step %d, want 1", st.Step)
	}
	if st.Wall != sim.Elapsed()-before || st.Wall >= sim.Elapsed() {
		t.Errorf("step 1 wall %v, want %v (elapsed %v) — that step alone", st.Wall, sim.Elapsed()-before, sim.Elapsed())
	}
	if got, want := phases.Add(st.Phases), sim.Finalize().Phases; got != want {
		t.Errorf("steps 0 and 1 phases sum to %+v, run's %+v", got, want)
	}
}

// TestResetClearsTrace verifies a rebound simulation reports no step of its
// previous binding: Reset and Restore both zero LastStep.
func TestResetClearsTrace(t *testing.T) {
	cfg := smallConfig(mesh.Stream)
	cfg.Steps = 2
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	snap := sim.Snapshot()
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if st := sim.LastStep(); st.Step != 1 || st.Wall <= 0 {
		t.Fatalf("LastStep after the run = %+v, want step 1 with a wall", st)
	}
	if err := sim.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if st := sim.LastStep(); st != (StepTiming{}) {
		t.Errorf("LastStep after Reset = %+v, want zero", st)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Restore(cfg, snap); err != nil {
		t.Fatal(err)
	}
	if st := sim.LastStep(); st != (StepTiming{}) {
		t.Errorf("LastStep after Restore = %+v, want zero", st)
	}
}

func TestPhaseTimingsEachSub(t *testing.T) {
	p := PhaseTimings{PhaseEventKernel: 5, PhaseCollisionKernel: 3, PhaseTallyKernel: 2, PhaseMerge: 1}
	q := PhaseTimings{PhaseEventKernel: 2, PhaseCollisionKernel: 3}
	d := p.Sub(q)
	if d != (PhaseTimings{PhaseEventKernel: 3, PhaseTallyKernel: 2, PhaseMerge: 1}) {
		t.Errorf("Sub = %+v", d)
	}
	if d.Add(q) != p || p.Total() != 11 {
		t.Errorf("Add = %+v, Total = %v", d.Add(q), p.Total())
	}
	var names []string
	d.Each(func(name string, dur time.Duration) { names = append(names, name) })
	want := []string{"event-kernel", "tally-kernel", "merge"}
	if len(names) != len(want) {
		t.Fatalf("Each visited %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Each visited %v, want %v", names, want)
		}
	}
	if spans := d.Spans(); len(spans) != 3 || spans[1] != (telemetry.Phase{Name: "tally-kernel", Dur: 2}) {
		t.Errorf("Spans = %+v", spans)
	}
	// The name table is the region probe's contract: these are the names a
	// probe hears and a trace, a result and a step view carry.
	all := []string{"event-kernel", "collision-kernel", "facet-kernel", "tally-kernel", "fused", "merge", "control", "sort"}
	for ph := range numPhases {
		if ph.String() != all[ph] {
			t.Errorf("Phase(%d) is %q, want %q", ph, ph, all[ph])
		}
	}
}
