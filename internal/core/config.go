// Package core implements the neutral mini-app solver: the Over Particles
// and Over Events parallelisation schemes (paper §V), the thread scheduling
// strategies (§VI-C), and the instrumentation that feeds the architecture
// performance model. A Simulation is built, reused and resumed through one
// path — Reset and Restore, both over (*run).bind — so a reused or restored
// engine is a fresh one by construction.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/events"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/scene"
	"repro/internal/tally"
	"repro/internal/xs"
)

// Scheme selects the parallelisation strategy (paper §V).
type Scheme int

const (
	// OverParticles follows each particle from birth to census on one
	// worker: data cached in registers, minimal synchronisation, deep
	// branches, possible load imbalance.
	OverParticles Scheme = iota
	// OverEvents advances particles one event at a time through tight
	// kernels: more data parallelism, no register caching, gathered
	// memory access. The paper synchronises every thread after every
	// kernel; here each worker runs the rounds of its own share of the
	// particles and the workers join once a step (see stepOverEvents).
	OverEvents
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case OverParticles:
		return "over-particles"
	case OverEvents:
		return "over-events"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme converts a name to a Scheme.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "over-particles", "particles", "op":
		return OverParticles, nil
	case "over-events", "events", "oe":
		return OverEvents, nil
	default:
		return 0, fmt.Errorf("core: unknown scheme %q (want over-particles or over-events)", s)
	}
}

// Config fully describes a neutral run.
type Config struct {
	// Scene is the declarative problem description the run simulates:
	// materials, density regions, sources and boundary conditions. nil
	// selects the built-in preset of Problem, so configs that predate the
	// scene layer keep their exact meaning. Validate resolves and
	// validates it; a validated scene is immutable and may be shared
	// across configs, replicas and goroutines.
	Scene *scene.Scene
	// Problem selects the paper test case preset (stream, scatter or csp)
	// when Scene is nil; it is ignored — including by the fingerprint —
	// when a Scene is set.
	Problem mesh.Problem
	// NX, NY are the mesh resolution. The paper uses 4000x4000.
	NX, NY int
	// Particles is the source population. The paper uses 1e6 for stream
	// and csp, 1e7 for scatter.
	Particles int
	// Timestep is the census interval in seconds (paper: 1e-7 s).
	Timestep float64
	// Steps is the number of timesteps to run.
	Steps int
	// Seed drives every random stream.
	Seed uint64

	// Threads is the worker count; 0 means GOMAXPROCS.
	Threads int
	// Scheme picks Over Particles or Over Events.
	Scheme Scheme
	// Schedule picks the work distribution strategy (paper Fig 4).
	Schedule Schedule
	// Layout picks AoS or SoA particle storage (paper Fig 5).
	Layout particle.Layout
	// Tally picks the tally implementation (paper Fig 7).
	Tally tally.Mode
	// MergePerStep forces a merge of the privatised tally at every
	// timestep — the paper's realistic coupled-physics case, which made
	// privatisation slower than atomics on all architectures (§VI-F).
	MergePerStep bool
	// Ordering picks the storage order of the mesh-shaped arrays (density,
	// tally): row-major or a Z-order curve. Pure execution strategy — every
	// externally visible per-cell view stays in logical row-major order and
	// the physics is bit-identical across orderings.
	Ordering mesh.Ordering
	// SortEvery, when positive, sorts the particle bank by storage cell
	// index every SortEvery timesteps (before the step's transport, outside
	// both scheme loops). Sorting is a physics-preserving permutation:
	// particle state and RNG streams ride along, only the slot order — and
	// hence the memory access pattern of the kernels — changes. 0 disables.
	SortEvery int

	// Replicas is the ensemble width: how many statistically independent
	// replicas an ensemble driver (stats.RunEnsemble, the service's
	// ensemble jobs) runs and folds into per-cell uncertainty. 0 and 1
	// both mean a single run; the field does not change the physics of
	// one simulation, only how many are run and how results are keyed.
	Replicas int
	// Replica is this run's 0-based index within the ensemble. It shifts
	// every particle's RNG stream identity by Replica*Particles, so each
	// replica samples a structurally disjoint family of Threefry streams
	// under the shared Seed. Replica 0 is bit-identical to a standalone
	// run of the same config.
	Replica int
	// WeightWindow enables weight-based population control: per-cell
	// Russian roulette and splitting at timestep boundaries (§IV-E).
	WeightWindow WeightWindow

	// XSPoints is the cross-section table resolution.
	XSPoints int
	// WeightCutoff and EnergyCutoff terminate particle histories.
	WeightCutoff float64
	EnergyCutoff float64

	// KeepBank retains the final particle bank on the Result for
	// inspection (tests, validation); large runs should leave it off.
	KeepBank bool
	// KeepCells retains a copy of the per-cell tally on the Result.
	KeepCells bool

	// CustomDensity, when non-nil, adjusts the density mesh after the
	// scene is painted — an escape hatch for density fields (gradients,
	// phantoms) the axis-aligned region language cannot express. Prefer
	// Scene: a hooked config cannot be fingerprinted or cached. A mesh
	// holds at most mesh.MaxDensities (256) distinct densities, so a
	// gradient is painted in that many bands or fewer; one value more, or
	// a NaN or negative one, fails the build with mesh.ErrTooManyDensities
	// or mesh.ErrBadDensity.
	CustomDensity func(m *mesh.Mesh)
	// CustomSource, when non-nil, replaces the scene's source list with a
	// single unit-weight box — the pre-scene override the service's
	// "source" spec field still speaks.
	CustomSource *mesh.SourceBox
}

// Progress is a point-in-time completion report for a run started with
// RunCtx. Done counts the particle histories retired (census or death) so
// far in the current step, out of the Total in flight when the step began.
type Progress struct {
	// Step is the current timestep, 0-based.
	Step int
	// Steps is the configured timestep count.
	Steps int
	// Done is the number of histories retired in the current step.
	Done int64
	// Total is the number of histories in flight at the step's start.
	Total int64
}

// Fraction reduces the report to a single completion ratio in [0, 1].
func (p Progress) Fraction() float64 {
	if p.Steps == 0 {
		return 0
	}
	step := float64(p.Step)
	if p.Total > 0 {
		f := float64(p.Done) / float64(p.Total)
		if f > 1 {
			f = 1
		}
		step += f
	}
	if frac := step / float64(p.Steps); frac < 1 {
		return frac
	}
	return 1
}

// ProgressFunc observes a run's progress. RunCtx invokes it from a single
// monitoring goroutine at a bounded rate — never from solver workers — so
// an implementation may be arbitrarily slow without perturbing the measured
// kernels.
type ProgressFunc func(Progress)

// resolvedScene returns the scene the config runs: Scene when set, the
// built-in preset of Problem otherwise.
func (c Config) resolvedScene() (*scene.Scene, error) {
	if c.Scene != nil {
		return c.Scene, nil
	}
	return scene.Preset(c.Problem)
}

// sceneKey is the scene's contribution to the fingerprint and physics hash:
// the content hash of the resolved scene, so an inline scene equivalent to a
// preset (or to another submission's inline scene) keys identically, and the
// Problem enum no longer leaks into any identity.
func (c Config) sceneKey() string {
	sc, err := c.resolvedScene()
	if err != nil {
		return fmt.Sprintf("bad-problem-%d", int(c.Problem))
	}
	return sc.Hash()
}

// Fingerprint is a job's identity: the physics (physicsHash — the one place
// the history-determining fields are listed) plus the shape of what is handed
// back. Equal fingerprints mean equal tally total, cells and leakage, bit for
// bit, so it keys the result cache, the blob store and the fleet's
// duplicate-discard. How the answer is computed — Threads, Scheme, Schedule,
// Layout, atomic or private Tally, MergePerStep, Ordering, SortEvery — is not
// part of it; Result.Config, timings and the scheme-local counters of a
// served result describe the run that produced it. A kept bank is the
// exception: its layout tag and slot order are the producing run's, so those
// three fields key a KeepBank request. The second return is false when the
// config carries a CustomDensity hook — arbitrary code cannot be
// canonicalised, so such runs must never be served from a cache.
func (c Config) Fingerprint() (string, bool) {
	h := sha256.New()
	// The epoch: keys written when the hash still covered execution strategy
	// (and, before that, a float tally) must never be read with this meaning.
	h.Write([]byte("fixed-point-1 physics+shape-1 "))
	physics := physicsHash(c)
	h.Write(physics[:])
	fmt.Fprintf(h, " replicas=%d cells=%t bank=%t null=%t ",
		max(c.Replicas, 1), c.KeepCells, c.KeepBank, c.Tally == tally.ModeNull)
	if c.KeepBank {
		fmt.Fprintf(h, "layout=%d ord=%d sortevery=%d ", int(c.Layout), int(c.Ordering), c.SortEvery)
	}
	return hex.EncodeToString(h.Sum(nil)), c.CustomDensity == nil
}

// Default returns a configuration sized so a full run completes in well
// under a second: the paper's physics at reduced mesh resolution and
// population. Event counts per particle scale linearly with resolution, so
// behaviour is preserved (see DESIGN.md §2).
func Default(p mesh.Problem) Config {
	return Config{
		Problem:      p,
		NX:           512,
		NY:           512,
		Particles:    2000,
		Timestep:     1e-7,
		Steps:        1,
		Seed:         9271,
		Threads:      0,
		Scheme:       OverParticles,
		Schedule:     Schedule{Kind: ScheduleStatic},
		Layout:       particle.AoS,
		Tally:        tally.ModeAtomic,
		XSPoints:     xs.DefaultPoints,
		WeightCutoff: events.DefaultWeightCutoff,
		EnergyCutoff: events.DefaultEnergyCutoff,
	}
}

// Paper returns the full paper-scale configuration: 4000^2 mesh, 1e6
// particles (1e7 for scatter), 1e-7 s timestep.
func Paper(p mesh.Problem) Config {
	cfg := Default(p)
	cfg.NX, cfg.NY = 4000, 4000
	cfg.Particles = 1_000_000
	if p == mesh.Scatter {
		cfg.Particles = 10_000_000
	}
	return cfg
}

// Validate checks the configuration and applies defaults for zero values,
// resolving a nil Scene to the Problem preset.
func (c *Config) Validate() error {
	if c.Scene == nil {
		preset, err := scene.Preset(c.Problem)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		c.Scene = preset
	}
	if err := c.Scene.Validate(); err != nil {
		return err
	}
	if c.NX < 1 || c.NY < 1 {
		return fmt.Errorf("core: mesh %dx%d must be positive", c.NX, c.NY)
	}
	if c.Particles < 1 {
		return fmt.Errorf("core: particle count %d must be positive", c.Particles)
	}
	if c.Timestep <= 0 {
		return fmt.Errorf("core: timestep %v must be positive", c.Timestep)
	}
	if c.Steps < 1 {
		return fmt.Errorf("core: steps %d must be positive", c.Steps)
	}
	if c.Threads < 0 {
		return fmt.Errorf("core: thread count %d must be non-negative", c.Threads)
	}
	if c.Threads == 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.XSPoints == 0 {
		c.XSPoints = xs.DefaultPoints
	}
	if c.XSPoints < 2 {
		return fmt.Errorf("core: cross-section table needs at least 2 points, got %d", c.XSPoints)
	}
	if c.WeightCutoff <= 0 || c.WeightCutoff >= 1 {
		return fmt.Errorf("core: weight cutoff %v must be in (0, 1)", c.WeightCutoff)
	}
	if c.EnergyCutoff <= 0 {
		return fmt.Errorf("core: energy cutoff %v must be positive", c.EnergyCutoff)
	}
	if c.Ordering != mesh.RowMajor && c.Ordering != mesh.Morton {
		return fmt.Errorf("core: unknown mesh ordering %d", int(c.Ordering))
	}
	if c.SortEvery < 0 {
		return fmt.Errorf("core: sort interval %d must be non-negative", c.SortEvery)
	}
	if c.Tally < tally.ModeAtomic || c.Tally > tally.ModeNull {
		return fmt.Errorf("core: unknown tally mode %d", int(c.Tally))
	}
	if c.Replicas < 0 {
		return fmt.Errorf("core: replica count %d must be non-negative", c.Replicas)
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Replicas > 1 && c.Tally == tally.ModeNull {
		// A null tally keeps no cells to fold: the ensemble would complete
		// with silently meaningless all-zero statistics.
		return errors.New("core: ensemble statistics need a live tally, not null")
	}
	// Replica is deliberately not bounded by Replicas: ensemble drivers
	// run replica r as a plain single-run config (Replicas 1, Replica r),
	// which also keeps a replica submission from being mistaken for a
	// nested ensemble.
	if c.Replica < 0 {
		return fmt.Errorf("core: replica index %d must be non-negative", c.Replica)
	}
	if c.WeightWindow.Enabled {
		c.WeightWindow = c.WeightWindow.withDefaults()
		if err := c.WeightWindow.validate(); err != nil {
			return err
		}
	}
	if err := c.Schedule.validate(); err != nil {
		return err
	}
	return nil
}
