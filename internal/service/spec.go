package service

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/scene"
	"repro/internal/tally"
)

// Spec is the wire-format run request: the JSON mirror of core.Config with
// string-named enums and problem-relative defaults. Zero-valued fields
// inherit the problem default, so {"problem":"csp"} is a complete request.
// Scene, when present, is a full inline problem description and makes
// Problem optional; two submissions with physically equivalent scenes share
// one fingerprint, so they hit the same cache entry and checkpoint.
type Spec struct {
	Problem   string       `json:"problem,omitempty"`
	Scene     *scene.Scene `json:"scene,omitempty"`
	Paper     bool         `json:"paper,omitempty"` // full paper scale baseline
	NX        int          `json:"nx,omitempty"`
	NY        int          `json:"ny,omitempty"`
	Particles int          `json:"particles,omitempty"`
	Timestep  float64      `json:"timestep,omitempty"`
	Steps     int          `json:"steps,omitempty"`
	Seed      *uint64      `json:"seed,omitempty"` // pointer: 0 is a valid seed
	Threads   int          `json:"threads,omitempty"`
	// Scheme and Tally choose an execution strategy, which changes no result
	// bit; a null tally keeps no cells, so it is part of the key.
	Scheme       string      `json:"scheme,omitempty"`
	Tally        string      `json:"tally,omitempty"`
	XSPoints     int         `json:"xs_points,omitempty"`
	WeightCutoff float64     `json:"weight_cutoff,omitempty"`
	EnergyCutoff float64     `json:"energy_cutoff,omitempty"`
	KeepCells    bool        `json:"keep_cells,omitempty"`
	Source       *SourceSpec `json:"source,omitempty"`
	// Replicas > 1 turns the submission into an ensemble job: the
	// replicas fan out across the worker pool and the result carries
	// merged per-cell uncertainty statistics.
	Replicas int `json:"replicas,omitempty"`
	// Replica is this run's 0-based index within an ensemble — the RNG
	// stream-family offset. Set by a fleet coordinator transporting an
	// ensemble child to a remote worker; plain clients leave it 0.
	Replica int `json:"replica,omitempty"`
	// RetainSnapshot keeps the job's latest checkpoint in memory for
	// GET /v1/jobs/{id}/snapshot — how a coordinator pulls the checkpoint
	// it would reschedule this shard from. Checkpoints are taken at the
	// first step boundary and then by measured cost — without a durable
	// store, only once the one held was pulled — not at every step; the
	// "checkpoint" field of each step event names the boundary served.
	RetainSnapshot bool `json:"retain_snapshot,omitempty"`
	// Snapshot (base64 in JSON) seeds the run from a checkpoint: the
	// solver restores it and continues from its recorded step boundary —
	// how a rescheduled shard resumes on a new worker.
	Snapshot []byte `json:"snapshot,omitempty"`
	// WeightWindow enables weight-based population control (roulette +
	// splitting) for the run.
	WeightWindow *WeightWindowSpec `json:"weight_window,omitempty"`
}

// WeightWindowSpec is the wire form of core.WeightWindow; zero fields take
// the solver defaults (target 1, ratio 4, split cap 8).
type WeightWindowSpec struct {
	Target   float64 `json:"target,omitempty"`
	Ratio    float64 `json:"ratio,omitempty"`
	SplitMax int     `json:"split_max,omitempty"`
}

// SourceSpec replaces the scene's sources with one unit-weight box, which
// must lie within the domain. The job's scene is the derived one, so it
// shares its identity with the equivalent inline scene.
type SourceSpec struct {
	X0 float64 `json:"x0"`
	X1 float64 `json:"x1"`
	Y0 float64 `json:"y0"`
	Y1 float64 `json:"y1"`
}

// Config resolves the spec to a validated-shape core.Config (final
// validation happens at Submit; a zero thread count is resolved by the
// engine that solves the job). A spec names a problem preset, carries an
// inline scene, or both — in which case the scene is the job's problem and
// the preset only sizes the defaults. A source box derives the job's own
// scene from that one (see SourceSpec).
func (s Spec) Config() (core.Config, error) {
	var p mesh.Problem
	var err error
	if s.Problem != "" {
		if p, err = mesh.ParseProblem(s.Problem); err != nil {
			return core.Config{}, err
		}
	} else if s.Scene == nil {
		return core.Config{}, fmt.Errorf("service: spec names neither a problem nor a scene")
	}
	if s.Scene != nil {
		if err := s.Scene.Validate(); err != nil {
			return core.Config{}, err
		}
	}
	// Zero means "problem default", so a negative override is always a
	// client error rather than something to fall back from silently.
	for name, v := range map[string]int{
		"nx": s.NX, "ny": s.NY, "particles": s.Particles, "steps": s.Steps,
		"threads": s.Threads, "xs_points": s.XSPoints,
	} {
		if v < 0 {
			return core.Config{}, fmt.Errorf("service: negative %s %d", name, v)
		}
	}
	if s.Timestep < 0 || s.WeightCutoff < 0 || s.EnergyCutoff < 0 {
		return core.Config{}, fmt.Errorf("service: negative physics parameter")
	}
	cfg := core.Default(p)
	if s.Paper {
		cfg = core.Paper(p)
	}
	if s.Scene != nil {
		cfg.Scene = s.Scene
	}
	if s.Source != nil {
		cfg.Scene = cfg.Scene.WithSources(scene.Source{
			X0: s.Source.X0, X1: s.Source.X1,
			Y0: s.Source.Y0, Y1: s.Source.Y1,
		})
		if err := cfg.Scene.Validate(); err != nil {
			return core.Config{}, fmt.Errorf("service: source: %w", err)
		}
	}
	if s.NX > 0 {
		cfg.NX = s.NX
		cfg.NY = s.NX
	}
	if s.NY > 0 {
		cfg.NY = s.NY
	}
	if s.Particles > 0 {
		cfg.Particles = s.Particles
	}
	if s.Timestep > 0 {
		cfg.Timestep = s.Timestep
	}
	if s.Steps > 0 {
		cfg.Steps = s.Steps
	}
	if s.Seed != nil {
		cfg.Seed = *s.Seed
	}
	cfg.Threads = s.Threads
	if s.Scheme != "" {
		if cfg.Scheme, err = core.ParseScheme(s.Scheme); err != nil {
			return core.Config{}, err
		}
	}
	if s.Tally != "" {
		if cfg.Tally, err = tally.ParseMode(s.Tally); err != nil {
			return core.Config{}, err
		}
	}
	if s.XSPoints > 0 {
		cfg.XSPoints = s.XSPoints
	}
	if s.WeightCutoff > 0 {
		cfg.WeightCutoff = s.WeightCutoff
	}
	if s.EnergyCutoff > 0 {
		cfg.EnergyCutoff = s.EnergyCutoff
	}
	cfg.KeepCells = s.KeepCells
	if s.Replicas < 0 {
		return core.Config{}, fmt.Errorf("service: negative replicas %d", s.Replicas)
	}
	cfg.Replicas = s.Replicas
	if s.Replica < 0 {
		return core.Config{}, fmt.Errorf("service: negative replica index %d", s.Replica)
	}
	cfg.Replica = s.Replica
	if s.WeightWindow != nil {
		cfg.WeightWindow = core.WeightWindow{
			Enabled:  true,
			Target:   s.WeightWindow.Target,
			Ratio:    s.WeightWindow.Ratio,
			SplitMax: s.WeightWindow.SplitMax,
		}
	}
	return cfg, nil
}

// SpecOf inverts Config: the wire Spec that, resolved through Spec.Config
// and Validate, reproduces cfg exactly — same fingerprint, same physics.
// This is the fleet coordinator's transport encoding for dispatching a
// shard to a remote worker: a thread count the client left unset stays off
// the wire, so the worker applies its own budget. It requires a validated
// config (Validate refuses a nil scene and fills every default).
func SpecOf(cfg core.Config) (Spec, error) {
	if cfg.Scene == nil {
		return Spec{}, fmt.Errorf("service: config has no scene")
	}
	seed := cfg.Seed
	s := Spec{
		Scene:        cfg.Scene,
		NX:           cfg.NX,
		NY:           cfg.NY,
		Particles:    cfg.Particles,
		Timestep:     cfg.Timestep,
		Steps:        cfg.Steps,
		Seed:         &seed,
		Threads:      cfg.Threads,
		Scheme:       cfg.Scheme.String(),
		Tally:        cfg.Tally.String(),
		XSPoints:     cfg.XSPoints,
		WeightCutoff: cfg.WeightCutoff,
		EnergyCutoff: cfg.EnergyCutoff,
		KeepCells:    cfg.KeepCells,
		Replicas:     cfg.Replicas,
		Replica:      cfg.Replica,
	}
	if cfg.WeightWindow.Enabled {
		s.WeightWindow = &WeightWindowSpec{
			Target:   cfg.WeightWindow.Target,
			Ratio:    cfg.WeightWindow.Ratio,
			SplitMax: cfg.WeightWindow.SplitMax,
		}
	}
	return s, nil
}
