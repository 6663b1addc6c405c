// Package neutral is a Go reproduction of the neutral Monte Carlo neutral
// particle transport mini-app (Martineau & McIntosh-Smith, IEEE CLUSTER
// 2017).
//
// The package is a facade over the internal implementation:
//
//   - Config / Run execute the mini-app with either on-node
//     parallelisation scheme (Over Particles or Over Events) on goroutine
//     worker pools, with the paper's scheduling, layout and tally options;
//   - Scene / LoadScene describe arbitrary problems declaratively —
//     materials, painted density regions, weighted jittered sources,
//     per-edge reflective/vacuum boundaries — with the paper's three test
//     problems as built-in presets (PresetScene);
//   - PredictDevices prices a problem on the analytic models of the
//     paper's five evaluation devices (Broadwell, KNL, POWER8, K20X, P100);
//   - Experiments regenerates every table and figure in the paper's
//     evaluation section;
//   - NewSimulation / RestoreSimulation expose the stateful solver
//     lifecycle: explicit timesteps, checkpoint snapshots that resume bit
//     for bit, and allocation reuse across parameter sweeps;
//   - RunCtx / NewService expose the serving layer: cancelable runs with
//     live progress and per-step streaming, job checkpoint/resume, batch
//     submission, and the job-queue/worker-pool/result-cache engine
//     behind the neutral-serve HTTP API (cmd/neutral-serve).
//
// See README.md for a tour and DESIGN.md for the system inventory.
package neutral

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/archmodel"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/scene"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/tally"
)

// Re-exported configuration vocabulary. These are aliases, so the full
// internal API (documented in the respective packages) is available on
// them.
type (
	// Config fully describes a run; obtain one from DefaultConfig or
	// PaperConfig and adjust.
	Config = core.Config
	// Result carries timings, instrumentation counters, the tally and
	// the conservation audit.
	Result = core.Result
	// Schedule is the OpenMP-style work distribution strategy.
	Schedule = core.Schedule
	// Figure is one reproduced table/figure from the paper.
	Figure = harness.Figure
	// SourceBox is an axis-aligned particle birth region.
	SourceBox = mesh.SourceBox
	// Mesh is the structured density mesh (for Config.CustomDensity). It
	// holds at most 256 distinct densities; see ErrTooManyDensities.
	Mesh = mesh.Mesh
	// Particle is the per-particle record (position, direction, energy,
	// weight, RNG counter); read them from Result.Bank when
	// Config.KeepBank is set.
	Particle = particle.Particle
	// Bank is the particle store in either layout.
	Bank = particle.Bank
	// ParticleLayout selects the bank memory layout (Config.Layout).
	ParticleLayout = particle.Layout

	// Progress is a point-in-time completion report delivered to the
	// ProgressFunc passed to RunCtx.
	Progress = core.Progress
	// ProgressFunc observes a run's progress from a dedicated monitor
	// goroutine.
	ProgressFunc = core.ProgressFunc

	// Simulation is the stateful solver engine: an explicit
	// New → Step → Snapshot/Restore → Finalize lifecycle over the
	// timestep loop, with Reset for amortising setup across sweeps. A run
	// split into Steps — including a snapshot/restore round-trip at any
	// boundary — reproduces an uninterrupted Run bit for bit.
	Simulation = core.Simulation
	// StepFunc observes a driven simulation at each completed timestep
	// boundary (per-step telemetry, checkpointing).
	StepFunc = core.StepFunc
	// PhaseTimings attributes solver wallclock to kernel phases (on
	// Result, and per step through the trace hook).
	PhaseTimings = core.PhaseTimings
	// StepTiming is one completed timestep's wallclock attribution, as
	// delivered to the Simulation.SetTrace hook.
	StepTiming = core.StepTiming
	// TraceFunc observes per-step timings; install one with
	// Simulation.SetTrace (nil by default — a disabled hook costs
	// nothing).
	TraceFunc = core.TraceFunc
	// JobStepView is one completed timestep of a service job, as
	// streamed over the SSE "step" events and the /steps endpoint.
	JobStepView = service.StepView
	// JobReplicaView is one completed replica of an ensemble job, as
	// streamed over the SSE "replica" events and the /replicas endpoint.
	JobReplicaView = service.ReplicaView

	// Scene is a declarative problem description: named materials,
	// painted density regions, weighted jittered sources and per-edge
	// boundary conditions. Set it on Config.Scene (nil selects the
	// Problem preset); load one from JSON with LoadScene/ParseScene.
	Scene = scene.Scene
	// SceneMaterial names a mass density for scene regions.
	SceneMaterial = scene.Material
	// SceneRegion paints a physical box with a named material.
	SceneRegion = scene.Region
	// SceneSource is one weighted particle birth region with optional
	// energy/weight/birth-time jitter.
	SceneSource = scene.Source
	// SceneBoundaries sets the per-edge boundary conditions
	// ("reflective" or "vacuum").
	SceneBoundaries = scene.Boundaries
	// Leakage is the per-edge vacuum-boundary loss tally on Result.
	Leakage = core.Leakage
	// Edge identifies one of the four domain edges (leakage indexing).
	Edge = mesh.Edge

	// WeightWindow configures weight-based population control: per-cell
	// Russian roulette and splitting at timestep boundaries (set it on
	// Config.WeightWindow).
	WeightWindow = core.WeightWindow
	// Ensemble is the folded result of a multi-replica run: per-cell
	// mean, sample variance, relative error and figure of merit.
	Ensemble = stats.Ensemble
	// EnsembleOptions configures RunEnsemble (worker count, per-replica
	// callback).
	EnsembleOptions = stats.Options
	// EnsembleReplicaView is the per-replica completion report delivered
	// to EnsembleOptions.OnReplica.
	EnsembleReplicaView = stats.ReplicaView

	// Service is the simulation service engine: one bounded job queue, a
	// pool of workers popping it, and content-addressed result cache.
	Service = service.Engine
	// ServiceOptions sizes a Service (workers, queue depth, cache).
	ServiceOptions = service.Options
	// Job is one simulation managed by a Service.
	Job = service.Job
	// JobStatus is an immutable job snapshot.
	JobStatus = service.Status
	// JobState is a job's lifecycle position.
	JobState = service.State
	// JobSpec is the wire-format run request accepted by the HTTP API.
	JobSpec = service.Spec
	// ServiceHandlerOptions tunes the HTTP layer (structured logging,
	// pprof exposure, SSE heartbeat interval).
	ServiceHandlerOptions = service.ServerOptions
)

// Job lifecycle states.
const (
	JobQueued   = service.StateQueued
	JobRunning  = service.StateRunning
	JobDone     = service.StateDone
	JobFailed   = service.StateFailed
	JobCanceled = service.StateCanceled
)

// Scheme constants.
const (
	OverParticles = core.OverParticles
	OverEvents    = core.OverEvents
)

// Particle layout constants.
const (
	LayoutAoS = particle.AoS
	LayoutSoA = particle.SoA
)

// Problem constants.
const (
	Stream  = mesh.Stream
	Scatter = mesh.Scatter
	CSP     = mesh.CSP
)

// Domain edge constants (Leakage indexing).
const (
	EdgeXLo = mesh.EdgeXLo
	EdgeXHi = mesh.EdgeXHi
	EdgeYLo = mesh.EdgeYLo
	EdgeYHi = mesh.EdgeYHi
)

// LoadScene reads and validates a declarative JSON scene file; set the
// result on Config.Scene.
func LoadScene(path string) (*Scene, error) { return scene.LoadFile(path) }

// ParseScene decodes and validates a JSON scene description.
func ParseScene(data []byte) (*Scene, error) { return scene.Parse(data) }

// PresetScene returns the built-in scene of a named paper problem
// ("stream", "scatter" or "csp") — the declarative form of what Run
// simulates when Config.Scene is nil. The returned scene is shared and
// immutable.
func PresetScene(problem string) (*Scene, error) {
	p, err := mesh.ParseProblem(problem)
	if err != nil {
		return nil, err
	}
	return scene.Preset(p)
}

// Tally mode constants.
const (
	TallyAtomic  = tally.ModeAtomic
	TallyPrivate = tally.ModePrivate
	TallyNull    = tally.ModeNull
)

// Schedule kind constants.
const (
	ScheduleStatic      = core.ScheduleStatic
	ScheduleStaticChunk = core.ScheduleStaticChunk
	ScheduleDynamic     = core.ScheduleDynamic
	ScheduleGuided      = core.ScheduleGuided
)

// DefaultConfig returns a laptop-scale configuration of the named problem
// ("stream", "scatter" or "csp"): the paper's physics at reduced mesh
// resolution and population.
func DefaultConfig(problem string) (Config, error) {
	p, err := mesh.ParseProblem(problem)
	if err != nil {
		return Config{}, err
	}
	return core.Default(p), nil
}

// PaperConfig returns the full paper-scale configuration: 4000^2 mesh,
// 1e6 particles (1e7 for scatter), 1e-7 s timestep.
func PaperConfig(problem string) (Config, error) {
	p, err := mesh.ParseProblem(problem)
	if err != nil {
		return Config{}, err
	}
	return core.Paper(p), nil
}

// Run executes the configured simulation.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// RunCtx executes the configured simulation with cooperative cancellation
// and optional live progress reporting.
func RunCtx(ctx context.Context, cfg Config, progress ProgressFunc) (*Result, error) {
	return core.RunCtx(ctx, cfg, progress)
}

// Simulation lifecycle errors.
var (
	// ErrFinished reports a Step on a simulation that has run every
	// configured timestep.
	ErrFinished = core.ErrFinished
	// ErrInterrupted reports a Step stopped mid-timestep; resume from the
	// last Snapshot.
	ErrInterrupted = core.ErrInterrupted
	// ErrSnapshotCorrupt reports a checkpoint that failed structural
	// validation (truncation, checksum, version).
	ErrSnapshotCorrupt = core.ErrSnapshotCorrupt
	// ErrSnapshotMismatch reports a checkpoint whose physics identity
	// does not match the config offered to RestoreSimulation.
	ErrSnapshotMismatch = core.ErrSnapshotMismatch
	// ErrTallyOverflow reports deposits that left the fixed-point range of
	// the tally (see the Determinism section of the README); Run, Drive and
	// Step wrap it.
	ErrTallyOverflow = tally.ErrOverflow
	// ErrTooManyDensities reports a density field with more than 256
	// distinct values — a mesh cell is a one-byte material index — from a
	// Config.CustomDensity hook or a scene; NewSimulation, Reset, Restore
	// and RestoreSimulation return it.
	ErrTooManyDensities = mesh.ErrTooManyDensities
	// ErrBadDensity reports a NaN, infinite or negative density painted by
	// a Config.CustomDensity hook.
	ErrBadDensity = mesh.ErrBadDensity
)

// NewSimulation builds a stateful simulation ready for its first Step: the
// explicit lifecycle behind Run, for callers that need per-step control,
// checkpointing (Snapshot/RestoreSimulation) or setup reuse (Reset, and
// Restore to resume in place).
func NewSimulation(cfg Config) (*Simulation, error) { return core.NewSimulation(cfg) }

// RestoreSimulation rebuilds a simulation from a Snapshot taken under an
// equivalent configuration and continues from the recorded step boundary;
// run to completion it reproduces an uninterrupted run bit for bit.
func RestoreSimulation(cfg Config, data []byte) (*Simulation, error) {
	return core.RestoreSimulation(cfg, data)
}

// RunEnsemble executes Config.Replicas independent replicas of the
// configuration — each on a disjoint counter-based RNG stream family — and
// folds their tallies into per-cell mean, sample variance, relative error
// and figure of merit. Each ensemble worker reuses one Simulation across
// its replicas, so setup is amortised exactly as in a sweep.
func RunEnsemble(ctx context.Context, cfg Config, opts EnsembleOptions) (*Ensemble, error) {
	return stats.RunEnsemble(ctx, cfg, opts)
}

// NewService starts a simulation service engine: jobs submitted to it are
// queued, run on the first free worker of its pool, cached by config content,
// and cancelable mid-flight. Stop it with Close.
func NewService(opts ServiceOptions) *Service { return service.New(opts) }

// ServiceHandler wraps a Service in the neutral-serve HTTP/JSON API
// (submit, status, result, cancel, streaming progress, stats, Prometheus
// /metrics, per-job Chrome traces) with default options: discarded logs,
// no pprof.
func ServiceHandler(s *Service) http.Handler { return service.NewServer(s) }

// ServiceHandlerWith is ServiceHandler with explicit HTTP-layer options
// (structured request logging, /debug/pprof exposure, SSE heartbeat).
func ServiceHandlerWith(s *Service, opts ServiceHandlerOptions) http.Handler {
	return service.NewServerWith(s, opts)
}

// DevicePrediction is one device's modelled runtime for a problem at paper
// scale.
type DevicePrediction struct {
	Device  string
	Seconds float64
	// Compute, Latency, Bandwidth, Atomics, Sync are the component
	// seconds of the roofline-with-latency model.
	Compute, Latency, Bandwidth, Atomics, Sync float64
	// TallyFraction is the share of runtime attributed to tallying.
	TallyFraction float64
}

// PredictDevices prices the named problem and scheme on all five paper
// devices at paper scale. The workload is measured from an instrumented
// reduced-scale run and scaled, exactly as the harness does.
func PredictDevices(problem, scheme string) ([]DevicePrediction, error) {
	p, err := mesh.ParseProblem(problem)
	if err != nil {
		return nil, err
	}
	s, err := core.ParseScheme(scheme)
	if err != nil {
		return nil, err
	}
	w, err := archmodel.MeasureWorkload(p, s)
	if err != nil {
		return nil, err
	}
	var out []DevicePrediction
	for _, d := range archmodel.Devices() {
		o := archmodel.Options{Tally: tally.ModeAtomic, CompactPlacement: true,
			Vectorised: s == core.OverEvents}
		if d.FastMem != nil {
			o.FastMem = true
		}
		pr := archmodel.Predict(d, w, o)
		out = append(out, DevicePrediction{
			Device:        pr.Device,
			Seconds:       pr.Seconds,
			Compute:       pr.Compute,
			Latency:       pr.Latency,
			Bandwidth:     pr.Bandwidth,
			Atomics:       pr.Atomics,
			Sync:          pr.Sync,
			TallyFraction: pr.TallyFraction(),
		})
	}
	return out, nil
}

// Experiments lists the identifiers of every reproducible table/figure.
func Experiments() []string {
	var ids []string
	for _, e := range harness.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// RunExperiment regenerates one of the paper's figures. scale is "quick",
// "standard" or "full".
func RunExperiment(id, scale string) (*Figure, error) {
	sc, err := harness.ParseScale(scale)
	if err != nil {
		return nil, err
	}
	exp, err := harness.ByID(id)
	if err != nil {
		return nil, err
	}
	fig, err := exp.Run(harness.Options{Scale: sc})
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", id, err)
	}
	return fig, nil
}
