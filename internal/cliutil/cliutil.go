// Package cliutil centralises the run-configuration vocabulary of the
// neutral command-line tools: the problem/scene/scheme/schedule/layout/tally
// flag block and its resolution into a core.Config. cmd/neutral registers
// the whole block; cmd/neutral-serve shares the logger. One definition means
// the tools cannot drift apart on flag names, defaults or parsing rules.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/scene"
	"repro/internal/tally"
	"repro/internal/telemetry"
)

// RunFlags is the shared flag block. Values are bound by Register and
// resolved by Config.
type RunFlags struct {
	Problem   *string
	Scene     *string
	Scheme    *string
	Schedule  *string
	Chunk     *int
	Layout    *string
	Tally     *string
	Ordering  *string
	SortEvery *int
}

// Register installs the shared run-configuration flags onto fs (use
// flag.CommandLine for a main).
func Register(fs *flag.FlagSet) *RunFlags {
	return &RunFlags{
		Problem:  fs.String("problem", "csp", "built-in test problem: stream, scatter or csp"),
		Scene:    fs.String("scene", "", "JSON scene file describing the problem (overrides -problem)"),
		Scheme:   fs.String("scheme", "over-particles", "parallelisation scheme: over-particles or over-events"),
		Schedule: fs.String("schedule", "static", "schedule: static, static-chunk, dynamic, guided"),
		Chunk:    fs.Int("chunk", 0, "schedule chunk size"),
		Layout:   fs.String("layout", "aos", "particle layout: aos or soa"),
		Tally:    fs.String("tally", "atomic", "tally: atomic, private or null"),
		Ordering: fs.String("ordering", "row-major",
			"mesh storage ordering: row-major or morton (Z-order curve)"),
		SortEvery: fs.Int("sort-every", 0,
			"sort the particle bank by cell every N steps (0 disables)"),
	}
}

// Config resolves the flag block into a core.Config at default scale (or
// paper scale when paper is set): the named problem preset, overridden by
// the -scene file when one was given, with scheme, schedule, layout and
// tally applied.
func (f *RunFlags) Config(paper bool) (core.Config, error) {
	p, err := mesh.ParseProblem(*f.Problem)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Default(p)
	if paper {
		cfg = core.Paper(p)
	}
	if *f.Scene != "" {
		sc, err := scene.LoadFile(*f.Scene)
		if err != nil {
			return core.Config{}, err
		}
		cfg.Scene = sc
	}
	if cfg.Scheme, err = core.ParseScheme(*f.Scheme); err != nil {
		return core.Config{}, err
	}
	kind, err := core.ParseSchedule(*f.Schedule)
	if err != nil {
		return core.Config{}, err
	}
	cfg.Schedule = core.Schedule{Kind: kind, Chunk: *f.Chunk}
	if cfg.Layout, err = particle.ParseLayout(*f.Layout); err != nil {
		return core.Config{}, err
	}
	if cfg.Tally, err = tally.ParseMode(*f.Tally); err != nil {
		return core.Config{}, err
	}
	if cfg.Ordering, err = mesh.ParseOrdering(*f.Ordering); err != nil {
		return core.Config{}, err
	}
	cfg.SortEvery = *f.SortEvery
	return cfg, nil
}

// Describe labels the configured problem for output: the scene name (or
// hash prefix, for anonymous scenes) when a scene drives the run, the
// problem preset name otherwise.
func Describe(cfg core.Config) string {
	if cfg.Scene == nil {
		return cfg.Problem.String()
	}
	if cfg.Scene.Name != "" {
		return cfg.Scene.Name
	}
	return fmt.Sprintf("scene-%.12s", cfg.Scene.Hash())
}

// AttachTrace returns the StepFunc that lays each completed step's phase
// spans (Simulation.LastStep) onto track; hand it to Drive, composed with
// any other per-step work.
func AttachTrace(track *telemetry.Track) core.StepFunc {
	return func(s *core.Simulation) {
		st := s.LastStep()
		track.AddStep(st.Step, st.Wall, st.Phases.Spans())
	}
}

// WriteTraceFile writes the trace as Chrome trace-event JSON at path —
// loadable in chrome://tracing, Perfetto or Speedscope.
func WriteTraceFile(path string, tr *telemetry.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// PhaseSummary renders non-zero phase timings as "name 1.234s" pairs for
// the CLI result summaries; empty when the run attributed no phase time.
func PhaseSummary(p core.PhaseTimings) string {
	var parts []string
	p.Each(func(name string, d time.Duration) {
		parts = append(parts, fmt.Sprintf("%s %.3fs", name, d.Seconds()))
	})
	return strings.Join(parts, "  ")
}

// NewLogger builds the CLI structured logger: JSON when jsonFormat is set
// (one object per line, machine-ingestable), logfmt-style text otherwise.
func NewLogger(w io.Writer, jsonFormat bool) *slog.Logger {
	if jsonFormat {
		return slog.New(slog.NewJSONHandler(w, nil))
	}
	return slog.New(slog.NewTextHandler(w, nil))
}
