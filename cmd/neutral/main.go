// Command neutral runs a single simulation of the neutral mini-app and
// reports timings, event counters and the conservation audit.
//
// Usage:
//
//	neutral -problem csp -scheme over-particles -threads 8
//	neutral -problem scatter -particles 100000 -nx 1024 -tally private
//	neutral -problem stream -paper        # full paper-scale run
//	neutral -scene examples/scenes/duct.json   # declarative scene file
//	neutral -problem csp -trace out.json  # per-step phase spans for chrome://tracing
//
// Long runs can checkpoint at every timestep boundary and survive a kill:
//
//	neutral -problem csp -paper -steps 20 -checkpoint run.ckpt
//	^C                                    # or a crash
//	neutral -problem csp -paper -steps 20 -checkpoint run.ckpt -resume
//
// The resumed run produces the same particle bank and event counters an
// uninterrupted run would have — the solver's RNG is counter-based, so
// histories replay exactly from the snapshot.
//
// Ensemble runs fold R independent replicas into per-cell uncertainty:
//
//	neutral -problem csp -replicas 8              # mean ± relative error + FOM
//	neutral -problem csp -replicas 8 -rr 1        # with weight-window population control
//	neutral -problem csp -replicas 8 -print-tally # mean + uncertainty heat maps
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/perfcount"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "neutral:", err)
		os.Exit(1)
	}
}

func run() error {
	runFlags := cliutil.Register(flag.CommandLine)
	var (
		threads  = flag.Int("threads", 0, "worker count (0 = GOMAXPROCS)")
		nx       = flag.Int("nx", 0, "mesh resolution override (0 = problem default)")
		parts    = flag.Int("particles", 0, "particle count override")
		steps    = flag.Int("steps", 1, "timesteps")
		seed     = flag.Uint64("seed", 9271, "random seed")
		merge    = flag.Bool("merge-per-step", false, "merge privatised tally every timestep")
		paper    = flag.Bool("paper", false, "use full paper scale (4000^2 mesh, 1e6/1e7 particles)")
		cells    = flag.Bool("print-tally", false, "print a coarse view of the energy deposition")
		ckpt     = flag.String("checkpoint", "", "snapshot the run into this file at every timestep boundary")
		resume   = flag.Bool("resume", false, "resume from the -checkpoint file when it exists")
		replicas = flag.Int("replicas", 1, "independent replicas to run and fold into per-cell uncertainty")
		rr       = flag.Float64("rr", 0, "weight-window target weight: enables Russian roulette + splitting population control (0 = off)")
		trace    = flag.String("trace", "", "write per-step phase spans to this file as Chrome trace-event JSON")
		counters = flag.Bool("counters", false, "attribute hardware/software performance counters to solver phases (perf_event_open; degrades to a notice where unsupported)")
	)
	flag.Parse()

	cfg, err := runFlags.Config(*paper)
	if err != nil {
		return err
	}
	cfg.MergePerStep = *merge
	cfg.Threads = *threads
	cfg.Steps = *steps
	cfg.Seed = *seed
	if *nx > 0 {
		cfg.NX, cfg.NY = *nx, *nx
	}
	if *parts > 0 {
		cfg.Particles = *parts
	}
	cfg.KeepCells = *cells
	if *rr > 0 {
		cfg.WeightWindow = core.WeightWindow{Enabled: true, Target: *rr}
	}
	if *resume && *ckpt == "" {
		return fmt.Errorf("-resume needs -checkpoint to name the snapshot file")
	}
	if *replicas > 1 {
		if *ckpt != "" || *resume {
			return fmt.Errorf("-checkpoint/-resume apply to single runs, not -replicas ensembles")
		}
		if *trace != "" {
			return fmt.Errorf("-trace applies to single runs, not -replicas ensembles")
		}
		cfg.Replicas = *replicas
		return runEnsemble(cfg, *cells)
	}

	// Build the engine: restored from the checkpoint when resuming, fresh
	// otherwise. A missing checkpoint file is a fresh start, not an error,
	// so restart scripts can pass -resume unconditionally.
	sim := new(core.Simulation)
	var data []byte
	if *resume {
		if data, err = os.ReadFile(*ckpt); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if data != nil {
		if err := sim.Restore(cfg, data); err != nil {
			return fmt.Errorf("resume from %s: %w", *ckpt, err)
		}
		fmt.Fprintf(os.Stderr, "neutral: resumed from %s at step %d/%d\n",
			*ckpt, sim.StepIndex(), sim.Steps())
	} else if err := sim.Reset(cfg); err != nil {
		return err
	}

	var tr *telemetry.Trace
	if *trace != "" {
		tr = telemetry.NewTrace()
		cliutil.AttachTrace(sim, tr.Track(cliutil.Describe(cfg)))
	}

	var collector *perfcount.Collector
	if *counters {
		c, err := perfcount.NewCollector(perfcount.DefaultEvents()...)
		switch {
		case errors.Is(err, perfcount.ErrUnsupported):
			fmt.Fprintln(os.Stderr, "neutral: performance counters unsupported on this system; running without")
		case err != nil:
			return err
		default:
			collector = c
			defer c.Close()
			sim.SetRegionProbe(c)
		}
	}

	var onStep core.StepFunc
	if *ckpt != "" {
		onStep = func(s *core.Simulation) {
			if err := core.WriteSnapshotFile(*ckpt, s.Snapshot()); err != nil {
				fmt.Fprintf(os.Stderr, "neutral: checkpoint: %v\n", err)
			}
		}
	}

	// SIGINT interrupts the solver at its next poll; the last completed
	// boundary's checkpoint survives for -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	res, err := sim.Drive(ctx, nil, onStep)
	if err != nil {
		if *ckpt != "" && (errors.Is(err, context.Canceled) || errors.Is(err, core.ErrInterrupted)) {
			fmt.Fprintf(os.Stderr, "neutral: interrupted at step %d/%d; rerun with -resume to continue from %s\n",
				sim.StepIndex(), sim.Steps(), *ckpt)
		}
		return err
	}
	if *ckpt != "" {
		os.Remove(*ckpt) // completed: the checkpoint has served its purpose
	}
	if tr != nil {
		if err := cliutil.WriteTraceFile(*trace, tr); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "neutral: wrote trace to %s (load in chrome://tracing or Perfetto)\n", *trace)
	}
	printResult(res)
	if collector != nil {
		printCounters(collector)
	}
	if *cells {
		printTally(res, cfg)
	}
	return nil
}

// printCounters renders the per-phase performance-counter attribution: one
// line per probed solver phase, one column per event that actually opened.
func printCounters(c *perfcount.Collector) {
	names := c.Names()
	phases := c.Phases()
	if len(phases) == 0 {
		return
	}
	fmt.Printf("counters     (events: %v)\n", names)
	for _, phase := range []string{"event-kernel", "collision-kernel", "facet-kernel",
		"tally-kernel", "fused", "merge", "control", "sort"} {
		bucket, ok := phases[phase]
		if !ok {
			continue
		}
		fmt.Printf("  %-17s", phase)
		for _, ev := range names {
			fmt.Printf(" %s=%d", ev, bucket[ev])
		}
		fmt.Println()
	}
}

// runEnsemble executes the multi-replica path: R independent replicas on
// disjoint RNG stream families, folded into per-cell mean, relative error
// and figure of merit. SIGINT cancels the whole ensemble.
func runEnsemble(cfg core.Config, printCells bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ens, err := stats.RunEnsemble(ctx, cfg, stats.Options{})
	if err != nil {
		return err
	}
	c := ens.Counters
	fmt.Printf("problem      %s  (%dx%d mesh, %d particles, %d step(s), %d replicas)\n",
		cliutil.Describe(cfg), cfg.NX, cfg.NY, cfg.Particles, cfg.Steps, ens.Replicas)
	fmt.Printf("scheme       %s  layout %s  tally %s\n", cfg.Scheme, cfg.Layout, cfg.Tally)
	fmt.Printf("wallclock    %v end to end, %v solver across replicas\n", ens.Wall, ens.SolverWall)
	fmt.Printf("events       %d total across replicas (facet %d, collision %d, census %d)\n",
		c.TotalEvents(), c.FacetEvents, c.CollisionEvents, c.CensusEvents)
	fmt.Printf("tally mean   %.6g weight-eV  +/- %.3g%% (1 sigma of the mean)\n",
		ens.MeanTotal, 100*ens.TotalRelErr)
	fmt.Printf("uncertainty  avg cell relerr %.3g%%, max %.3g%% over %d scored cells\n",
		100*ens.AvgRelErr, 100*ens.MaxRelErr, ens.ScoredCells)
	fmt.Printf("fom          %.4g /s (1 / relerr^2 / solver-seconds)\n", ens.FOM)
	printWeightWindow(c)
	if printCells {
		fmt.Println("mean energy deposition (log shade, origin bottom-left):")
		renderMap(ens.Mean, cfg.NX, cfg.NY, true)
		fmt.Println("relative error (linear shade; darker = more uncertain):")
		renderMap(ens.RelErr, cfg.NX, cfg.NY, false)
	}
	return nil
}

func printResult(res *core.Result) {
	cfg := res.Config
	c := res.Counter
	fmt.Printf("problem      %s  (%dx%d mesh, %d particles, %d step(s))\n",
		cliutil.Describe(cfg), cfg.NX, cfg.NY, cfg.Particles, cfg.Steps)
	fmt.Printf("scheme       %s  schedule %s  layout %s  tally %s  threads %d\n",
		cfg.Scheme, cfg.Schedule, cfg.Layout, cfg.Tally, cfg.Threads)
	if cfg.Ordering != mesh.RowMajor || cfg.SortEvery > 0 {
		fmt.Printf("locality     ordering %s  sort-every %d\n", cfg.Ordering, cfg.SortEvery)
	}
	fmt.Printf("wallclock    %v\n", res.Wall)
	if phases := cliutil.PhaseSummary(res.Phases); phases != "" {
		fmt.Printf("phases       %s\n", phases)
	}
	fmt.Printf("events       %d  (facet %d, collision %d, census %d)\n",
		c.TotalEvents(), c.FacetEvents, c.CollisionEvents, c.CensusEvents)
	fmt.Printf("per particle %.1f facets, %.2f collisions\n",
		core.PerParticle(c.FacetEvents, cfg.Particles),
		core.PerParticle(c.CollisionEvents, cfg.Particles))
	fmt.Printf("throughput   %.2f Mevents/s\n",
		float64(c.TotalEvents())/res.Wall.Seconds()/1e6)
	fmt.Printf("memory ops   %d density reads, %d tally flushes, %d xs lookups (mean walk %.2f bins after the bucket jump)\n",
		c.DensityReads, c.TallyFlushes, c.XSLookups,
		float64(c.XSSearchSteps)/float64(max(c.XSLookups, 1)))
	if c.OERounds > 0 {
		ev, coll, facet := res.OEVisitNs()
		fmt.Printf("over-events  %d rounds, %d naive slot sweeps, %d visited (active fraction %.3f); ns/visit event %.1f, collision %.1f, facet %.1f\n",
			c.OERounds, c.OESlotSweeps, c.OEActiveVisits, c.OEActiveFraction(), ev, coll, facet)
	}
	printWeightWindow(c)
	printLeakage(res)
	fmt.Printf("population   %d dead, %d escaped, weight %.1f -> %.1f\n",
		c.Deaths, c.Escapes, res.Conservation.BirthWeight, res.Conservation.FinalWeight)
	fmt.Printf("energy       deposited %.4g weight-eV, leaked %.4g, in flight %.4g, conservation error %.2e\n",
		res.Conservation.Deposited, res.Conservation.Leaked, res.Conservation.InFlight, res.Conservation.RelativeError)
	fmt.Printf("balance      load imbalance %.3f (max worker / mean)\n", res.LoadImbalance())
}

// printWeightWindow summarises population control when it fired; silent on
// analog runs.
func printWeightWindow(c core.Counters) {
	if c.WWRoulette > 0 || c.WWSplits > 0 {
		fmt.Printf("weight window  %d roulette games (%d killed), %d splits (+%d children)\n",
			c.WWRoulette, c.WWKills, c.WWSplits, c.WWChildren)
	}
}

// printLeakage summarises per-edge vacuum losses when any history escaped;
// silent on reflective scenes.
func printLeakage(res *core.Result) {
	if res.Counter.Escapes == 0 {
		return
	}
	l := &res.Leakage
	fmt.Printf("leakage      %.4g weight-eV out (", l.TotalEnergy())
	first := true
	for e := mesh.Edge(0); e < mesh.NumEdges; e++ {
		if l.Energy[e] == 0 && l.Weight[e] == 0 {
			continue
		}
		if !first {
			fmt.Print(", ")
		}
		fmt.Printf("%s %.4g", e, l.Energy[e])
		first = false
	}
	fmt.Println(")")
}

// printTally renders the deposition mesh as a coarse ASCII heat map — the
// textual analogue of the paper's Fig 2.
func printTally(res *core.Result, cfg core.Config) {
	if len(res.Cells) == 0 {
		return
	}
	fmt.Println("energy deposition (log shade, origin bottom-left):")
	renderMap(res.Cells, cfg.NX, cfg.NY, true)
}

// renderMap coarsens a per-cell field onto a 32x32 ASCII heat map, shading
// either by log magnitude (deposition spans decades) or linearly (relative
// error lives in [0, ~1]).
func renderMap(cells []float64, nx, ny int, logScale bool) {
	if len(cells) == 0 {
		return
	}
	const grid = 32
	sums := make([]float64, grid*grid)
	maxSum := 0.0
	for cy := 0; cy < ny; cy++ {
		for cx := 0; cx < nx; cx++ {
			gx := cx * grid / nx
			gy := cy * grid / ny
			sums[gy*grid+gx] += cells[cy*nx+cx]
		}
	}
	for _, s := range sums {
		if s > maxSum {
			maxSum = s
		}
	}
	shades := []byte(" .:-=+*#%@")
	for gy := grid - 1; gy >= 0; gy-- {
		row := make([]byte, grid)
		for gx := 0; gx < grid; gx++ {
			v := sums[gy*grid+gx]
			idx := 0
			if v > 0 && maxSum > 0 {
				frac := v / maxSum
				if logScale {
					frac = 1 + 0.125*math.Log10(frac) // 8 decades of range
				}
				if frac < 0 {
					frac = 0
				}
				idx = int(frac * float64(len(shades)-1))
				if idx < 1 {
					idx = 1
				}
			}
			row[gx] = shades[idx]
		}
		fmt.Printf("  %s\n", row)
	}
}
