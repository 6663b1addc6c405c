package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/scene"
	"repro/internal/tally"
)

// smallConfig is the standard reduced-scale test configuration.
func smallConfig(p mesh.Problem) Config {
	cfg := Default(p)
	cfg.NX, cfg.NY = 128, 128
	cfg.Particles = 400
	cfg.Threads = 4
	cfg.KeepBank = true
	cfg.KeepCells = true
	return cfg
}

func TestRunSmokeAllProblemsBothSchemes(t *testing.T) {
	for _, p := range []mesh.Problem{mesh.Stream, mesh.Scatter, mesh.CSP} {
		for _, scheme := range []Scheme{OverParticles, OverEvents} {
			cfg := smallConfig(p)
			cfg.Scheme = scheme
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", p, scheme, err)
			}
			if res.Conservation.RelativeError > 1e-9 {
				t.Errorf("%v/%v: conservation error %.3g", p, scheme, res.Conservation.RelativeError)
			}
			alive, census, dead := res.Bank.CountStatus()
			if alive != 0 {
				t.Errorf("%v/%v: %d particles still alive after run", p, scheme, alive)
			}
			if census+dead != cfg.Particles {
				t.Errorf("%v/%v: census+dead = %d, want %d", p, scheme, census+dead, cfg.Particles)
			}
			if res.Counter.Segments == 0 || res.Counter.TallyFlushes == 0 {
				t.Errorf("%v/%v: counters empty: %+v", p, scheme, res.Counter)
			}
		}
	}
}

// TestEventBalancePerProblem pins the per-problem event profile the paper
// builds its analysis on: stream is facet-dominated with essentially no
// collisions, scatter is collision-dominated with few facets, csp is a mix.
func TestEventBalancePerProblem(t *testing.T) {
	results := map[mesh.Problem]*Result{}
	for _, p := range []mesh.Problem{mesh.Stream, mesh.Scatter, mesh.CSP} {
		res, err := Run(smallConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		results[p] = res
	}

	n := float64(smallConfig(mesh.Stream).Particles)

	// Stream: no collisions, hundreds of facets per particle. At 128^2
	// resolution a 10 MeV particle crossing 4.374 m of a 2.5 m mesh with
	// reflective walls encounters ~(4/pi)*path/dx ~ 285 facets.
	st := results[mesh.Stream].Counter
	if st.CollisionEvents != 0 {
		t.Errorf("stream: %d collisions, want 0 (vacuum)", st.CollisionEvents)
	}
	facetsPerParticle := float64(st.FacetEvents) / n
	if facetsPerParticle < 200 || facetsPerParticle > 400 {
		t.Errorf("stream: %.0f facets/particle, want ~285", facetsPerParticle)
	}
	if st.CensusEvents != uint64(n) {
		t.Errorf("stream: %d census events, want %v (all particles)", st.CensusEvents, n)
	}
	if st.Reflections == 0 {
		t.Error("stream: no reflections; particles should cross the mesh repeatedly")
	}

	// Scatter: collision-dominated; most particles die in or near their
	// birth cell, so facet counts are far below stream's.
	sc := results[mesh.Scatter].Counter
	collisionsPerParticle := float64(sc.CollisionEvents) / n
	if collisionsPerParticle < 5 || collisionsPerParticle > 40 {
		t.Errorf("scatter: %.1f collisions/particle, want ~12", collisionsPerParticle)
	}
	if float64(sc.FacetEvents)/n > 30 {
		t.Errorf("scatter: %.1f facets/particle, want few (particles stay near birth cell)",
			float64(sc.FacetEvents)/n)
	}
	if sc.Deaths == 0 {
		t.Error("scatter: no particle deaths; cutoffs never fired")
	}

	// CSP: both event kinds present in quantity.
	cs := results[mesh.CSP].Counter
	if cs.CollisionEvents == 0 || cs.FacetEvents == 0 {
		t.Errorf("csp: missing event mix: %+v", cs)
	}
	if float64(cs.FacetEvents)/n < 50 {
		t.Errorf("csp: %.1f facets/particle, want streaming-dominated mix", float64(cs.FacetEvents)/n)
	}
}

// TestDeterminismAcrossThreads: the counter-based RNG and per-particle
// streams make results independent of the worker count.
func TestDeterminismAcrossThreads(t *testing.T) {
	var ref *Result
	for _, threads := range []int{1, 2, 3, 8} {
		cfg := smallConfig(mesh.CSP)
		cfg.Threads = threads
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		compareBanks(t, ref.Bank, res.Bank)
		if res.Counter.TotalEvents() != ref.Counter.TotalEvents() {
			t.Errorf("threads=%d: event count %d != %d", threads,
				res.Counter.TotalEvents(), ref.Counter.TotalEvents())
		}
		if rel := math.Abs(res.TallyTotal-ref.TallyTotal) / ref.TallyTotal; rel > 1e-9 {
			t.Errorf("threads=%d: tally differs by %.3g (reassociation tolerance exceeded)", threads, rel)
		}
	}
}

// TestDeterminismAcrossSchedules: the schedule only reorders work.
func TestDeterminismAcrossSchedules(t *testing.T) {
	scheds := []Schedule{
		{Kind: ScheduleStatic},
		{Kind: ScheduleStaticChunk, Chunk: 16},
		{Kind: ScheduleDynamic, Chunk: 5},
		{Kind: ScheduleGuided, Chunk: 8},
	}
	var ref *Result
	for _, sched := range scheds {
		cfg := smallConfig(mesh.CSP)
		cfg.Schedule = sched
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		compareBanks(t, ref.Bank, res.Bank)
	}
}

// TestDeterminismAcrossLayouts: AoS and SoA must be bit-identical.
func TestDeterminismAcrossLayouts(t *testing.T) {
	cfgA := smallConfig(mesh.CSP)
	cfgA.Layout = particle.AoS
	cfgS := cfgA
	cfgS.Layout = particle.SoA
	ra, err := Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(cfgS)
	if err != nil {
		t.Fatal(err)
	}
	compareBanks(t, ra.Bank, rs.Bank)
	if ra.TallyTotal != rs.TallyTotal {
		t.Errorf("AoS vs SoA tallies differ: %v vs %v", ra.TallyTotal, rs.TallyTotal)
	}
}

// TestTallyModesAgree: the shared atomic tally, its single-writer path and
// the privatised tally accumulate the same cells, bit for bit.
func TestTallyModesAgree(t *testing.T) {
	base := smallConfig(mesh.Scatter)
	base.Threads = 1
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []tally.Mode{tally.ModeAtomic, tally.ModePrivate} {
		cfg := smallConfig(mesh.Scatter)
		cfg.Tally = mode
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.TallyTotal != ref.TallyTotal {
			t.Errorf("%v tally %.17g, single-writer %.17g", mode, res.TallyTotal, ref.TallyTotal)
		}
		for i := range ref.Cells {
			if res.Cells[i] != ref.Cells[i] {
				t.Fatalf("%v: cell %d differs: %v vs %v", mode, i, res.Cells[i], ref.Cells[i])
			}
		}
	}
	// Null tally runs but keeps nothing.
	cfg := smallConfig(mesh.Scatter)
	cfg.Tally = tally.ModeNull
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TallyTotal != 0 {
		t.Error("null tally retained deposits")
	}
}

// TestTallyOverflowFailsRun: deposits can exceed the birth energy the tick
// was sized from only through weight-window roulette, which restores a
// survivor to the window's target weight. A lone history boosted 64-fold
// deposits far past the fixed-point range; such a run must fail with the
// typed error, from Run and from the next Step alike — and the runs whose
// history lost the roulette must still succeed.
func TestTallyOverflowFailsRun(t *testing.T) {
	cfg := smallConfig(mesh.Scatter)
	cfg.Particles = 1
	cfg.Steps = 2
	cfg.WeightWindow = WeightWindow{Enabled: true, Target: 64}
	overflowed := 0
	for seed := uint64(0); seed < 200; seed++ {
		cfg.Seed = seed
		if _, err := Run(cfg); err == nil {
			continue
		} else if !errors.Is(err, tally.ErrOverflow) {
			t.Fatalf("seed %d: %v, want tally.ErrOverflow", seed, err)
		}
		overflowed++
		sim, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Step(); err != nil {
			t.Fatalf("seed %d: first step: %v", seed, err)
		}
		sim.TallyTotal() // the step-boundary read that sees it
		if err := sim.Step(); !errors.Is(err, tally.ErrOverflow) {
			t.Fatalf("seed %d: step after an overflowed read: %v, want tally.ErrOverflow", seed, err)
		}
	}
	if overflowed == 0 {
		t.Fatal("no seed in 200 survived the roulette; the test exercises nothing")
	}
}

// TestRefusedDensityFailsBuild: a scene whose densities a mesh cannot hold —
// a NaN or negative material, or one distinct value more than
// mesh.MaxDensities — must come back as the typed error from every door that
// builds a mesh (NewSimulation, Reset, Restore, RestoreSimulation) instead of
// a panic or a NaN cross-section that silently never collides. A refused
// Reset leaves the simulation on its previous configuration.
func TestRefusedDensityFailsBuild(t *testing.T) {
	csp, err := scene.Preset(mesh.CSP)
	if err != nil {
		t.Fatal(err)
	}
	// paint is csp with one more material per density, each painted over a
	// cell of its own along the bottom rows of the 64x64 golden mesh.
	paint := func(rhos ...float64) *scene.Scene {
		sc := csp.WithSources(csp.Sources...)
		const pitch = mesh.Extent / 64
		for k, rho := range rhos {
			name := fmt.Sprintf("m%d", k)
			x, y := float64(k%64)*pitch, float64(k/64)*pitch
			sc.Materials = append(sc.Materials, scene.Material{Name: name, Density: rho})
			sc.Regions = append(sc.Regions, scene.Region{Material: name, X0: x, X1: x + pitch, Y0: y, Y1: y + pitch})
		}
		return sc
	}
	good := goldenConfig(mesh.CSP)
	good.Scene = paint(2.5)
	sim, err := NewSimulation(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	snap := sim.Snapshot()

	// csp paints two densities already: 255 more is one too many.
	many := make([]float64, mesh.MaxDensities-1)
	for k := range many {
		many[k] = float64(k + 1)
	}
	scenes := []struct {
		name  string
		scene *scene.Scene
		want  error
	}{
		{"NaN", paint(2.5, math.NaN()), mesh.ErrBadDensity},
		{"negative", paint(-2), mesh.ErrBadDensity},
		{"257th", paint(many...), mesh.ErrTooManyDensities},
	}
	for _, h := range scenes {
		bad := good
		bad.Scene = h.scene
		if _, err := NewSimulation(bad); !errors.Is(err, h.want) {
			t.Errorf("%s: NewSimulation = %v, want %v", h.name, err, h.want)
		}
		if _, err := RestoreSimulation(bad, snap); !errors.Is(err, h.want) {
			t.Errorf("%s: RestoreSimulation = %v, want %v", h.name, err, h.want)
		}
		if err := sim.Reset(bad); !errors.Is(err, h.want) {
			t.Errorf("%s: Reset = %v, want %v", h.name, err, h.want)
		}
		if err := sim.Restore(bad, snap); !errors.Is(err, h.want) {
			t.Errorf("%s: Restore = %v, want %v", h.name, err, h.want)
		}
	}
	// So is a snapshot of other physics, and one whose framing is broken:
	// both are turned away before the bind.
	other := good
	other.Seed++
	if err := sim.Restore(other, snap); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("Restore under another seed = %v, want ErrSnapshotMismatch", err)
	}
	if err := sim.Restore(good, snap[:len(snap)-1]); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("Restore of a truncated snapshot = %v, want ErrSnapshotCorrupt", err)
	}

	// The refused Resets and Restores changed nothing: the simulation
	// finishes the run it was on, bit for bit.
	got, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(good)
	if err != nil {
		t.Fatal(err)
	}
	if got.TallyTotal != want.TallyTotal || got.Counter != want.Counter {
		t.Errorf("after refused Resets: tally %.17g counters %+v, want %.17g %+v",
			got.TallyTotal, got.Counter, want.TallyTotal, want.Counter)
	}

	// A snapshot that passes every check made before the bind and then fails
	// mid-decode — its last tally entry names a cell outside the mesh — has
	// overwritten state by the time it is refused: the simulation is left
	// unbound, and the next Reset builds it again.
	bent := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint64(bent[len(bent)-4-16:], 1<<40)
	if err := sim.Restore(good, fixCRC(bent)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("Restore of a snapshot with a stray tally cell = %v, want ErrSnapshotCorrupt", err)
	}
	if sim.r != nil {
		t.Error("a Restore that failed mid-decode left the simulation bound")
	}
	if err := sim.Reset(good); err != nil {
		t.Fatalf("Reset of the unbound simulation: %v", err)
	}
	if got, err = sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got.TallyTotal != want.TallyTotal || got.Counter != want.Counter {
		t.Errorf("after rebuilding the unbound simulation: tally %.17g counters %+v, want %.17g %+v",
			got.TallyTotal, got.Counter, want.TallyTotal, want.Counter)
	}
}

func TestMultiStepConservation(t *testing.T) {
	cfg := smallConfig(mesh.CSP)
	cfg.Steps = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conservation.RelativeError > 1e-9 {
		t.Errorf("multi-step conservation error %.3g", res.Conservation.RelativeError)
	}
	// Census events: every surviving particle reaches census every step.
	if res.Counter.CensusEvents < uint64(cfg.Particles) {
		t.Errorf("census events %d < particle count %d over %d steps",
			res.Counter.CensusEvents, cfg.Particles, cfg.Steps)
	}
}

func TestMergePerStepCharged(t *testing.T) {
	cfg := smallConfig(mesh.Scatter)
	cfg.Tally = tally.ModePrivate
	cfg.MergePerStep = true
	cfg.Steps = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases[PhaseMerge] <= 0 {
		t.Error("per-step merge not timed")
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NX = 0 },
		func(c *Config) { c.NX = 1 << 32 },            // a cell coordinate is an int32
		func(c *Config) { c.NX, c.NY = 1<<20, 1<<20 }, // more than mesh.MaxCells
		func(c *Config) { c.Particles = 0 },
		func(c *Config) { c.Particles = particle.MaxPopulation + 1 },
		func(c *Config) { c.Replicas = MaxReplicas + 1 },
		func(c *Config) { c.Particles, c.Replica = 4, 1<<62 }, // identities wrap to replica 0's
		func(c *Config) { c.Particles, c.Replica = 2, 1<<62 }, // identities reach the split domain
		func(c *Config) { c.Timestep = 0 },
		func(c *Config) { c.Timestep = math.NaN() },
		func(c *Config) { c.Timestep = math.Inf(1) },
		func(c *Config) { c.Steps = 0 },
		func(c *Config) { c.Steps = MaxSteps + 1 },
		func(c *Config) { c.Threads = -1 },
		func(c *Config) { c.Threads = MaxThreads + 1 },
		func(c *Config) { c.WeightCutoff = 0 },
		func(c *Config) { c.WeightCutoff = 1.5 },
		func(c *Config) { c.WeightCutoff = math.NaN() },
		func(c *Config) { c.EnergyCutoff = -1 },
		func(c *Config) { c.EnergyCutoff = math.NaN() },
		func(c *Config) { c.EnergyCutoff = math.Inf(1) },
		func(c *Config) { c.XSPoints = 1 },
		func(c *Config) { c.XSPoints = 10_000_000_000 }, // more than xs.MaxPoints
		func(c *Config) { c.Schedule.Chunk = -2 },
		func(c *Config) { c.Schedule.Chunk = particle.MaxPopulation + 1 },
		func(c *Config) { c.Schedule = Schedule{Kind: ScheduleDynamic, Chunk: math.MaxInt} }, // overflowed the claim cursor
		func(c *Config) { c.Tally = tally.ModeNull + 1 },
		func(c *Config) { c.Scheme = OverEvents + 1 },
		func(c *Config) { c.Scheme = -1 },
		func(c *Config) { c.Layout = particle.SoA + 1 },
		func(c *Config) { c.Layout = -1 },
	}
	for i, mutate := range bad {
		cfg := Default(mesh.CSP)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// The last replica whose identities all stay below 2^63.
	edge := Default(mesh.CSP)
	edge.Particles, edge.Replica = 4, 1<<61-1
	if err := edge.Validate(); err != nil {
		t.Errorf("replica %d of 4 particles rejected: %v", edge.Replica, err)
	}
	// The last thread count and chunk accepted.
	edge = Default(mesh.CSP)
	edge.Threads, edge.Schedule = MaxThreads, Schedule{Kind: ScheduleDynamic, Chunk: particle.MaxPopulation}
	if err := edge.Validate(); err != nil {
		t.Errorf("%d threads at chunk %d rejected: %v", edge.Threads, edge.Schedule.Chunk, err)
	}
	good := Default(mesh.CSP)
	if err := good.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	// Threads is strategy: Validate leaves 0 in place, and the run that
	// binds the config resolves it.
	if good.Threads != 0 {
		t.Errorf("Validate set the thread count to %d", good.Threads)
	}
	res, err := Run(good)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Config.Threads, runtime.GOMAXPROCS(0); got != want || len(res.WorkerBusy) != want {
		t.Errorf("a run of Threads 0 reports %d threads and %d workers, want GOMAXPROCS = %d",
			got, len(res.WorkerBusy), want)
	}
}

func TestPaperConfig(t *testing.T) {
	cfg := Paper(mesh.Scatter)
	if cfg.NX != 4000 || cfg.NY != 4000 {
		t.Errorf("paper mesh = %dx%d, want 4000x4000", cfg.NX, cfg.NY)
	}
	if cfg.Particles != 10_000_000 {
		t.Errorf("paper scatter population = %d, want 1e7", cfg.Particles)
	}
	if Paper(mesh.CSP).Particles != 1_000_000 {
		t.Error("paper csp population should be 1e6")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("paper scatter config rejected: %v", err)
	}
}

func TestLoadImbalanceReported(t *testing.T) {
	cfg := smallConfig(mesh.CSP)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WorkerBusy) != cfg.Threads {
		t.Fatalf("WorkerBusy has %d entries, want %d", len(res.WorkerBusy), cfg.Threads)
	}
	if im := res.LoadImbalance(); im < 1 {
		t.Errorf("load imbalance %v < 1", im)
	}
}

func TestPerParticleHelper(t *testing.T) {
	if PerParticle(100, 50) != 2 {
		t.Error("PerParticle arithmetic wrong")
	}
	if PerParticle(100, 0) != 0 {
		t.Error("PerParticle should guard against zero population")
	}
}

// compareBanks asserts bitwise-identical particle records.
func compareBanks(t *testing.T, a, b *particle.Bank) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("bank sizes differ: %d vs %d", a.Len(), b.Len())
	}
	var pa, pb particle.Particle
	for i := 0; i < a.Len(); i++ {
		a.Load(i, &pa)
		b.Load(i, &pb)
		if pa != pb {
			t.Fatalf("particle %d differs:\n a: %+v\n b: %+v", i, pa, pb)
		}
	}
}

// TestFixedCostsFollowDeposits: what a run pays around its steps — building
// the simulation, the step-boundary total, a snapshot, the final audit —
// follows the cells it deposited into, not the cells the mesh has. A stream
// run deposits nothing, so its whole lifecycle must allocate a fraction of
// what a dense tally alone would; a csp run deposits around its source, so
// its tally must hold well under the dense array's bytes.
func TestFixedCostsFollowDeposits(t *testing.T) {
	cfg := Default(mesh.Stream)
	cfg.NX, cfg.NY = 2048, 2048
	cfg.Particles = 200
	cfg.Threads = 1
	dense := uint64(8 * cfg.NX * cfg.NY)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	snap := sim.Snapshot()
	res := sim.Finalize()
	runtime.ReadMemStats(&after)
	if res.TallyTotal != 0 || len(snap) == 0 {
		t.Fatalf("stream deposited %v", res.TallyTotal)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= dense/4 {
		t.Errorf("stream 2048²: NewSimulation + Step + Snapshot + Finalize allocated %d bytes, want under a quarter of the dense tally's %d", got, dense)
	}

	cfg = Default(mesh.CSP)
	cfg.NX, cfg.NY = 1024, 1024
	cfg.Threads = 1
	if sim, err = NewSimulation(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	if sim.TallyTotal() == 0 {
		t.Fatal("csp deposited nothing")
	}
	held, full := sim.r.tly.(*tally.Atomic).FootprintBytes(), 8*cfg.NX*cfg.NY
	if held >= full/2 {
		t.Errorf("csp 1024²: the tally holds %d bytes, want under half of the dense %d", held, full)
	}
	t.Logf("csp 1024²: tally holds %d of a dense %d bytes", held, full)
}
