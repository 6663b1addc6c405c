// Command neutral-sweep runs a native thread-scaling sweep of the mini-app on
// the host and emits CSV: one row per thread count from 1 to -max, with the
// wallclock, speedup and efficiency against one thread, and the load
// imbalance. The schedule, layout and tally axes are paper figures, run by
// neutral-bench (fig04, fig05, fig07); here they are fixed by the shared run
// flags, so any one of them can be swept over threads on any problem or scene.
//
// All sweep points run through one core.Simulation, Reset between points:
// allocations the next point can legally reuse (mesh, cross-section
// tables, particle bank) survive, so setup is amortised across the sweep
// instead of being rebuilt per run.
//
// Usage:
//
//	neutral-sweep -problem csp -max 16
//	neutral-sweep -scene examples/scenes/duct.json -schedule dynamic
//	neutral-sweep -trace sweep-trace.json
//
// With -trace, every sweep point records its per-step phase spans onto an
// own-named track in one Chrome trace-event JSON file.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"

	"repro/internal/cliutil"
	"repro/internal/core"
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
		nx    = flag.Int("nx", 512, "mesh resolution")
		parts = flag.Int("particles", 2000, "particle count")
		maxT  = flag.Int("max", 0, "max thread count (0 = GOMAXPROCS)")
		trace = flag.String("trace", "", "write a Chrome trace-event JSON profile of every sweep point to this file")
	)
	flag.Parse()

	base, err := runFlags.Config(false)
	if err != nil {
		return err
	}
	base.NX, base.NY = *nx, *nx
	base.Particles = *parts
	if *maxT < 0 || *maxT > core.MaxThreads {
		return fmt.Errorf("-max %d out of range [0, %d]", *maxT, core.MaxThreads)
	}
	max := *maxT
	if max == 0 {
		max = runtime.GOMAXPROCS(0)
	}
	// Every point is base at some thread count up to max: checking the
	// widest refuses a bad flag before the header, not at the first point.
	widest := base
	widest.Threads = max
	if err := widest.Validate(); err != nil {
		return err
	}

	var tr *telemetry.Trace
	if *trace != "" {
		tr = telemetry.NewTrace()
		defer func() {
			if err := cliutil.WriteTraceFile(*trace, tr); err != nil {
				fmt.Fprintln(os.Stderr, "neutral-sweep: trace:", err)
			}
		}()
	}

	w := csv.NewWriter(os.Stdout)
	defer w.Flush()
	if err := w.Write([]string{"threads", "seconds", "speedup", "efficiency", "imbalance"}); err != nil {
		return err
	}
	// One simulation for the whole sweep; each point Resets it in place.
	var sim core.Simulation
	var t1 float64
	for t := 1; t <= max; t++ {
		cfg := base
		cfg.Threads = t
		if err := sim.Reset(cfg); err != nil {
			return err
		}
		var onStep core.StepFunc
		if tr != nil {
			onStep = cliutil.AttachTrace(tr.Track(fmt.Sprintf("t%02d %s", t, cliutil.Describe(cfg))))
		}
		res, err := sim.Drive(context.Background(), onStep)
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
	return w.Error()
}
