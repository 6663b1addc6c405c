// Command neutral-sweep runs native parameter sweeps of the mini-app on
// the host and emits CSV, for plotting scaling and configuration studies.
//
// All sweep points run through one core.Simulation, Reset between points:
// allocations the next point can legally reuse (mesh, cross-section
// tables, particle bank) survive, so setup is amortised across the sweep
// instead of being rebuilt per run.
//
// Usage:
//
//	neutral-sweep -sweep threads -problem csp -max 16
//	neutral-sweep -sweep schedule -problem csp
//	neutral-sweep -sweep layout
//	neutral-sweep -sweep tally -problem scatter
//	neutral-sweep -sweep threads -scene examples/scenes/duct.json
//	neutral-sweep -sweep schedule -trace sweep-trace.json
//
// With -trace, every sweep point records its per-step phase spans onto an
// own-named track in one Chrome trace-event JSON file.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/tally"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "neutral-sweep:", err)
		os.Exit(1)
	}
}

func run() error {
	runFlags := cliutil.Register(flag.CommandLine)
	var (
		sweep = flag.String("sweep", "threads", "sweep kind: threads, schedule, layout or tally")
		nx    = flag.Int("nx", 512, "mesh resolution")
		parts = flag.Int("particles", 2000, "particle count")
		maxT  = flag.Int("max", 0, "max thread count for the threads sweep (0 = GOMAXPROCS)")
		trace = flag.String("trace", "", "write a Chrome trace-event JSON profile of every sweep point to this file")
	)
	flag.Parse()

	base, err := runFlags.Config(false)
	if err != nil {
		return err
	}
	base.NX, base.NY = *nx, *nx
	base.Particles = *parts

	w := csv.NewWriter(os.Stdout)
	defer w.Flush()

	// One engine for the whole sweep; each point Resets it in place.
	var sweeper runner
	if *trace != "" {
		sweeper.trace = telemetry.NewTrace()
		defer func() {
			if err := cliutil.WriteTraceFile(*trace, sweeper.trace); err != nil {
				fmt.Fprintln(os.Stderr, "neutral-sweep: trace:", err)
			}
		}()
	}

	switch *sweep {
	case "threads":
		max := *maxT
		if max <= 0 {
			max = runtime.GOMAXPROCS(0)
		}
		if err := w.Write([]string{"threads", "seconds", "speedup", "efficiency", "imbalance"}); err != nil {
			return err
		}
		var t1 float64
		for t := 1; t <= max; t++ {
			cfg := base
			cfg.Threads = t
			res, err := sweeper.run(cfg)
			if err != nil {
				return err
			}
			s := res.Wall.Seconds()
			if t == 1 {
				t1 = s
			}
			rec := []string{
				strconv.Itoa(t),
				fmt.Sprintf("%.6f", s),
				fmt.Sprintf("%.3f", t1/s),
				fmt.Sprintf("%.3f", t1/s/float64(t)),
				fmt.Sprintf("%.3f", res.LoadImbalance()),
			}
			if err := w.Write(rec); err != nil {
				return err
			}
			w.Flush()
		}

	case "schedule":
		if err := w.Write([]string{"schedule", "seconds", "imbalance"}); err != nil {
			return err
		}
		for _, s := range []core.Schedule{
			{Kind: core.ScheduleStatic},
			{Kind: core.ScheduleStaticChunk, Chunk: 7},
			{Kind: core.ScheduleDynamic, Chunk: 1},
			{Kind: core.ScheduleDynamic, Chunk: 7},
			{Kind: core.ScheduleDynamic, Chunk: 64},
			{Kind: core.ScheduleGuided, Chunk: 7},
		} {
			cfg := base
			cfg.Schedule = s
			res, err := sweeper.run(cfg)
			if err != nil {
				return err
			}
			if err := w.Write([]string{s.String(),
				fmt.Sprintf("%.6f", res.Wall.Seconds()),
				fmt.Sprintf("%.3f", res.LoadImbalance())}); err != nil {
				return err
			}
		}

	case "layout":
		if err := w.Write([]string{"problem", "layout", "seconds"}); err != nil {
			return err
		}
		// With a scene file the sweep compares layouts on that scene; the
		// default sweeps all three paper presets.
		points := []core.Config{base}
		if base.Scene == nil {
			points = nil
			for _, prob := range []mesh.Problem{mesh.Stream, mesh.Scatter, mesh.CSP} {
				cfg := base
				cfg.Problem = prob
				points = append(points, cfg)
			}
		}
		for _, point := range points {
			for _, l := range []particle.Layout{particle.AoS, particle.SoA} {
				cfg := point
				cfg.Layout = l
				res, err := sweeper.run(cfg)
				if err != nil {
					return err
				}
				if err := w.Write([]string{cliutil.Describe(cfg), l.String(),
					fmt.Sprintf("%.6f", res.Wall.Seconds())}); err != nil {
					return err
				}
			}
		}

	case "tally":
		if err := w.Write([]string{"tally", "seconds"}); err != nil {
			return err
		}
		for _, m := range []tally.Mode{tally.ModeAtomic, tally.ModePrivate, tally.ModeNull} {
			cfg := base
			cfg.Tally = m
			res, err := sweeper.run(cfg)
			if err != nil {
				return err
			}
			if err := w.Write([]string{m.String(),
				fmt.Sprintf("%.6f", res.Wall.Seconds())}); err != nil {
				return err
			}
		}

	default:
		return fmt.Errorf("unknown sweep %q", *sweep)
	}
	return nil
}

// runner owns the sweep's single Simulation: every point Resets it to the
// new configuration — the first builds it, later ones reuse whatever
// allocations the change permits. With tracing on, every point gets its
// own track — Reset clears the solver's trace hook, so it is re-attached
// per point.
type runner struct {
	sim   core.Simulation
	trace *telemetry.Trace
	point int
}

func (r *runner) run(cfg core.Config) (*core.Result, error) {
	if err := r.sim.Reset(cfg); err != nil {
		return nil, err
	}
	if r.trace != nil {
		label := fmt.Sprintf("%02d %s t%d %s %s %s", r.point,
			cliutil.Describe(cfg), cfg.Threads, cfg.Schedule.String(),
			cfg.Layout.String(), cfg.Tally.String())
		cliutil.AttachTrace(&r.sim, r.trace.Track(label))
	}
	r.point++
	return r.sim.Run()
}
