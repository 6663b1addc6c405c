// Package core implements the neutral mini-app solver: the Over Particles
// and Over Events parallelisation schemes (paper §V), the thread scheduling
// strategies (§VI-C), and the instrumentation that feeds the architecture
// performance model. A Simulation is built, reused and resumed through one
// path — Reset and Restore, both over (*run).bind — so a reused or restored
// engine is a fresh one by construction.
package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"

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

// Config fully describes a neutral run in three parts: the Physics that
// determines its histories, the Strategy that computes them and the Shape of
// what is handed back. A job's identity is its Physics and Shape (see
// Fingerprint), so the part a field is declared in says whether it keys one.
type Config struct {
	Physics
	Strategy
	Shape
}

// Physics determines particle histories: it is what physicsHash digests and
// what a snapshot must share with the config it resumes under.
type Physics struct {
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
	// Replica is this run's 0-based index within an ensemble: it shifts
	// every particle's RNG stream identity by Replica*Particles, so replicas
	// sample disjoint Threefry stream families under one Seed. Replica 0 is
	// bit-identical to a standalone run of the same config.
	Replica int
	// WeightWindow enables weight-based population control: per-cell
	// Russian roulette and splitting at timestep boundaries (§IV-E).
	WeightWindow WeightWindow
	// XSPoints is the cross-section table resolution.
	XSPoints int
	// WeightCutoff and EnergyCutoff terminate particle histories.
	WeightCutoff float64
	EnergyCutoff float64
}

// Strategy decides how the histories are computed and changes no result bit:
// the schemes are bit-equivalent and every deposit is a fixed-point tick.
type Strategy struct {
	// Threads is the worker count; 0 means GOMAXPROCS, resolved when a run
	// binds the config.
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
	// tally): row-major or a Z-order curve. Every externally visible
	// per-cell view stays in logical row-major order.
	Ordering mesh.Ordering
	// SortEvery, when positive, sorts the particle bank by storage cell
	// index every SortEvery timesteps, before the step's transport: only the
	// slot order, and so the kernels' memory access pattern, changes.
	SortEvery int
}

// Shape decides what is handed back, and nothing about any one history.
type Shape struct {
	// Replicas is the ensemble width: how many independent replicas an
	// ensemble driver (stats.RunEnsemble, the service's ensemble jobs) runs
	// and folds into per-cell uncertainty. 0 and 1 both mean a single run.
	Replicas int
	// KeepCells retains a copy of the per-cell tally on the Result.
	KeepCells bool
	// KeepBank retains the final particle bank on the Result for
	// inspection (tests, validation); large runs should leave it off.
	KeepBank bool
}

// resolvedScene returns the scene the physics runs: Scene when set, the
// built-in preset of Problem otherwise.
func (p Physics) resolvedScene() (*scene.Scene, error) {
	if p.Scene != nil {
		return p.Scene, nil
	}
	return scene.Preset(p.Problem)
}

// sceneKey is the scene's contribution to the physics hash: the content
// hash of the resolved scene, so an inline scene equivalent to a preset (or
// to another submission's inline scene) keys identically, and the Problem
// enum no longer leaks into any identity.
func (p Physics) sceneKey() string {
	sc, err := p.resolvedScene()
	if err != nil {
		return fmt.Sprintf("bad-problem-%d", int(p.Problem))
	}
	return sc.Hash()
}

// Fingerprint is a job's identity: its Physics (physicsHash) plus its Shape.
// Equal fingerprints mean equal tally total, cells and leakage, bit for bit,
// so it keys the result cache, the blob store and the fleet's
// duplicate-discard. Strategy is read in exactly two places, both about what
// comes back: a null Tally keeps no cells, and a kept bank's layout tag and
// slot order are the producing run's, so Layout, Ordering and SortEvery key a
// KeepBank request. The second return is always true: it stays only because
// benchmark/tracejob.go reads it, and goes with the next change to benchmark/.
func (c Config) Fingerprint() (string, bool) {
	h := sha256.New()
	// The epoch: keys written when the hash still covered execution strategy
	// (and, before that, a float tally) must never be read with this meaning.
	h.Write([]byte("fixed-point-1 physics+shape-1 "))
	physics := physicsHash(c.Physics)
	h.Write(physics[:])
	fmt.Fprintf(h, " replicas=%d cells=%t bank=%t null=%t ",
		max(c.Replicas, 1), c.KeepCells, c.KeepBank, c.Tally == tally.ModeNull)
	if c.KeepBank {
		fmt.Fprintf(h, "layout=%d ord=%d sortevery=%d ", int(c.Layout), int(c.Ordering), c.SortEvery)
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// Default returns a configuration sized so a full run completes in well
// under a second: the paper's physics at reduced mesh resolution and
// population. Event counts per particle scale linearly with resolution, so
// behaviour is preserved (see DESIGN.md §2).
func Default(p mesh.Problem) Config {
	return Config{
		Physics: Physics{
			Problem:      p,
			NX:           512,
			NY:           512,
			Particles:    2000,
			Timestep:     1e-7,
			Steps:        1,
			Seed:         9271,
			XSPoints:     xs.DefaultPoints,
			WeightCutoff: events.DefaultWeightCutoff,
			EnergyCutoff: events.DefaultEnergyCutoff,
		},
		Strategy: Strategy{
			Scheme:   OverParticles,
			Schedule: Schedule{Kind: ScheduleStatic},
			Layout:   particle.AoS,
			Tally:    tally.ModeAtomic,
		},
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

// Validate checks each part, and the one rule across parts: an ensemble needs
// a live tally. Physics resolves a nil Scene to the Problem preset and fills
// its zero defaults, Shape maps Replicas 0 to 1, and Strategy is only checked:
// a Threads of 0 stays 0 until a run binds the config.
func (c *Config) Validate() error {
	if err := cmp.Or(c.Physics.validate(), c.Strategy.validate(), c.Shape.validate()); err != nil {
		return err // the first failing part's
	}
	if c.Replicas > 1 && c.Tally == tally.ModeNull {
		// A null tally keeps no cells to fold: the ensemble would complete
		// with silently meaningless all-zero statistics.
		return errors.New("core: ensemble statistics need a live tally, not null")
	}
	return nil
}

// positiveFinite reports whether v is positive and finite; NaN is not.
func positiveFinite(v float64) bool { return v > 0 && v <= math.MaxFloat64 }

// MaxSteps bounds a run's timesteps: a job keeps a record of every step it
// completes, so an unbounded count is unbounded memory on a server.
const MaxSteps = 4096

func (p *Physics) validate() error {
	if p.Scene == nil {
		preset, err := scene.Preset(p.Problem)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		p.Scene = preset
	}
	if err := p.Scene.Validate(); err != nil {
		return err
	}
	if err := mesh.CheckDims(p.NX, p.NY); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if p.Particles < 1 || p.Particles > particle.MaxPopulation {
		return fmt.Errorf("core: particle count %d out of range [1, %d]", p.Particles, particle.MaxPopulation)
	}
	if !positiveFinite(p.Timestep) {
		return fmt.Errorf("core: timestep %v must be positive and finite", p.Timestep)
	}
	if p.Steps < 1 || p.Steps > MaxSteps {
		return fmt.Errorf("core: steps %d out of range [1, %d]", p.Steps, MaxSteps)
	}
	if p.XSPoints == 0 {
		p.XSPoints = xs.DefaultPoints
	}
	if p.XSPoints < 2 || p.XSPoints > xs.MaxPoints {
		return fmt.Errorf("core: cross-section table points %d out of range [2, %d]", p.XSPoints, xs.MaxPoints)
	}
	if !(p.WeightCutoff > 0 && p.WeightCutoff < 1) {
		return fmt.Errorf("core: weight cutoff %v must be in (0, 1)", p.WeightCutoff)
	}
	if !positiveFinite(p.EnergyCutoff) {
		return fmt.Errorf("core: energy cutoff %v must be positive and finite", p.EnergyCutoff)
	}
	// Not bounded by Replicas: ensemble drivers run replica r as a plain
	// single-run config (Replicas 1, Replica r).
	if p.Replica < 0 {
		return fmt.Errorf("core: replica index %d must be non-negative", p.Replica)
	}
	// Source identities Replica*Particles + i stay below 2^63, rng.ChildID's
	// split domain; past 2^64 they would wrap onto replica 0's streams.
	if uint64(p.Replica) >= (1<<63)/uint64(p.Particles) {
		return fmt.Errorf("core: replica index %d with %d particles puts source identities past 2^63", p.Replica, p.Particles)
	}
	if p.WeightWindow.Enabled {
		p.WeightWindow = p.WeightWindow.withDefaults()
	}
	return p.WeightWindow.validate()
}

// MaxThreads bounds a run's worker count. A run holds state per thread, and
// a private tally a copy of the mesh per thread; 1024 is 4× the 256 hardware
// threads of KNL, the widest device in the paper.
const MaxThreads = 1024

func (s Strategy) validate() error {
	if s.Threads < 0 || s.Threads > MaxThreads {
		return fmt.Errorf("core: thread count %d out of range [0, %d]", s.Threads, MaxThreads)
	}
	if s.Scheme != OverParticles && s.Scheme != OverEvents {
		return fmt.Errorf("core: unknown scheme %d", int(s.Scheme))
	}
	if s.Layout != particle.AoS && s.Layout != particle.SoA {
		return fmt.Errorf("core: unknown particle layout %d", int(s.Layout))
	}
	if s.Ordering != mesh.RowMajor && s.Ordering != mesh.Morton {
		return fmt.Errorf("core: unknown mesh ordering %d", int(s.Ordering))
	}
	if s.SortEvery < 0 {
		return fmt.Errorf("core: sort interval %d must be non-negative", s.SortEvery)
	}
	if s.Tally < tally.ModeAtomic || s.Tally > tally.ModeNull {
		return fmt.Errorf("core: unknown tally mode %d", int(s.Tally))
	}
	return s.Schedule.validate()
}

// MaxReplicas bounds an ensemble's width, as one /v1/batch request's fan-out.
const MaxReplicas = 1024

func (s *Shape) validate() error {
	if s.Replicas < 0 || s.Replicas > MaxReplicas {
		return fmt.Errorf("core: replica count %d out of range [0, %d]", s.Replicas, MaxReplicas)
	}
	s.Replicas = max(s.Replicas, 1)
	return nil
}
