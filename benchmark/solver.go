package main

import (
	"math"
	"time"

	"repro/internal/core"
)

// regionProbe is the benchmark's core.RegionProbe: it times the solver's
// kernel regions from outside. Calls arrive on the solver goroutine, paired
// and never nested, so no locking is needed. Totals and launch counts are
// always kept; individual spans only while keep is set, so an Over Events
// step (thousands of launches) does not swamp the trace file.
type regionProbe struct {
	rec    *recorder
	parent int // the enclosing core.step span
	op     int
	keep   bool

	start    time.Time
	total    map[string]time.Duration
	launches int
}

var _ core.RegionProbe = (*regionProbe)(nil)

func (p *regionProbe) StartRegion(string) { p.start = time.Now() }

func (p *regionProbe) EndRegion(name string) {
	end := time.Now()
	p.total[name] += end.Sub(p.start)
	p.launches++
	if p.keep {
		p.rec.add(p.parent, "core.region."+name, p.op, "solver", p.start, end)
	}
}

// solved is one timed pass through the Simulation lifecycle.
type solved struct {
	cfg            core.Config
	res            *core.Result
	sim            *core.Simulation
	new, step, fin time.Duration
	probe          *regionProbe
}

func (s solved) wall() time.Duration { return s.new + s.step + s.fin }

// solve runs cfg exactly as core.Run does — NewSimulation, Step until done,
// Finalize — timing each phase. With a trace parent it records the spans and
// attaches a region probe; keepRegions also keeps each kernel launch.
func (b *bench) solve(cfg core.Config, parent int, keepRegions bool) (solved, error) {
	out := solved{cfg: cfg}
	traced := parent != 0
	op := b.rec.opOf(parent)
	t0 := time.Now()
	sim, err := core.NewSimulation(cfg)
	t1 := time.Now()
	if err != nil {
		return out, err
	}
	if traced {
		b.rec.add(parent, "core.new", op, "solver", t0, t1)
		out.probe = &regionProbe{rec: b.rec, op: op, keep: keepRegions, total: map[string]time.Duration{}}
		sim.SetRegionProbe(out.probe)
	}
	for !sim.Done() {
		s0 := time.Now()
		if traced {
			// The step span is opened before the step so region spans can
			// name it as their parent, and closed after.
			out.probe.parent = b.rec.add(parent, "core.step", op, "solver", s0, s0)
		}
		if err := sim.Step(); err != nil {
			return out, err
		}
		if traced {
			b.rec.close(out.probe.parent)
		}
	}
	t2 := time.Now()
	out.res = sim.Finalize()
	t3 := time.Now()
	if traced {
		b.rec.add(parent, "core.finalize", op, "solver", t2, t3)
	}
	out.sim = sim
	out.new, out.step, out.fin = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return out, nil
}

// runSolver is the measured phase of a solver workload. Each round is
//
//	calib(1) -> solve at Threads=1 -> calib(1) -> [calib(P)] -> solve at Threads=P -> [calib(P)]
//
// and every timing is normalised by the two calibration runs around it (the
// bracketed ones run in traced rounds only, see solverRound).
func (b *bench) runSolver() {
	warmup := b.w.warmup()
	total := warmup + b.rounds
	for round := 0; round < total; round++ {
		measured := round >= warmup
		if measured && b.expired(round-warmup) {
			break
		}
		traced := b.rec != nil && measured && tracedRound(round-warmup)
		b.solverRound(uint64(round), measured, traced)
		if measured {
			b.roundDone(round - warmup)
		}
	}
}

// solverRound runs one round; an unmeasured round is a warm-up.
func (b *bench) solverRound(round uint64, measured, traced bool) {
	seed := mix(b.opts.Seed, round)
	b.settle()
	roundSpan := b.open(traced, 0, "bench.round", 0)
	defer b.close(roundSpan)

	c1a := b.calibrate(1, roundSpan)
	op1 := b.open(traced, roundSpan, "bench.op", b.opID())
	s1, err1 := b.solve(b.w.config(seed, 1), op1, false)
	b.close(op1)
	c1b := b.calibrate(1, roundSpan)

	// The Threads=P solve is timed only in traced rounds (its numbers are
	// per-layer); untraced rounds run it for the t1 == tP check alone and
	// skip its two calibration runs.
	var cPa, cPb time.Duration
	if traced {
		cPa = b.calibrate(b.P, roundSpan)
	}
	opP := b.open(traced, roundSpan, "bench.op", b.opID())
	// Kernel-launch spans are kept for the first traced round only.
	sP, errP := b.solve(b.w.config(seed, b.P), opP, len(b.get("core.region.launches")) == 0)
	b.close(opP)
	if traced {
		cPb = b.calibrate(b.P, roundSpan)
	}

	if !measured {
		return
	}
	b.attempt()
	b.attempt()
	if err1 != nil || errP != nil {
		b.fail("round %d seed %d: solve failed: t1=%v tP=%v", round, seed, err1, errP)
		return
	}
	b.verifySolve("t1", int(round), s1.res)
	b.verifySolve("tP", int(round), sP.res)
	b.verifyPair(int(round), s1.res, sP.res)

	// End-to-end numbers of a solver workload come from the Threads=1 solve.
	// The Threads=P solve is measured just as carefully but reported per
	// layer (core.events_per_s_p, core.step_s, core.parallel_speedup): on
	// the two shared vCPUs of the reference host a static two-thread step is
	// only as steady as the host's placement of those vCPUs, and scatter_op,
	// whose workers add into the same few hundred tally lines, runs 1.6x
	// slower for minutes at a time when they land far apart.
	job := b.cal(s1.wall(), c1a, c1b)
	if traced {
		b.add("traced.job_s", job)
		b.recordCore(s1, c1a, c1b, sP, cPa, cPb)
		b.lifecycle(sP, roundSpan)
		return
	}
	events := float64(s1.res.Counter.TotalEvents())
	b.add("setup_s", b.cal(s1.new, c1a, c1b))
	b.add("events_per_s_t1", events/b.cal(s1.step, c1a, c1b))
	b.add("job_p50_s", job)
	b.add("overhead_x", s1.wall().Seconds()/s1.step.Seconds())
	b.jobsDone++
	b.jobsWall += job
	b.add("calib.raw_op_s", s1.wall().Seconds())
}

// recordCore turns one traced round's pair of solves into core.* samples.
func (b *bench) recordCore(s1 solved, c1a, c1b time.Duration, sP solved, cPa, cPb time.Duration) {
	step1 := b.cal(s1.step, c1a, c1b)
	stepP := b.cal(sP.step, cPa, cPb)
	b.add("core.new_s", b.cal(sP.new, cPa, cPb))
	b.add("core.step_s", stepP)
	b.add("core.step_t1_s", step1)
	b.add("core.events_per_s_p", float64(sP.res.Counter.TotalEvents())/stepP)
	b.add("core.finalize_s", b.cal(sP.fin, cPa, cPb))
	b.recordRegions(sP, cPa, cPb)
	speedup := step1 / stepP
	b.add("core.parallel_speedup", speedup)
	if b.P > 1 {
		// Karp-Flatt: the serial fraction that explains the measured speedup.
		p := float64(b.P)
		b.add("core.serial_fraction", (1/speedup-1/p)/(1-1/p))
	} else {
		b.add("core.serial_fraction", 1)
	}
	b.add("core.load_imbalance", sP.res.LoadImbalance())
	b.recordCounts(sP.res)
}

// recordRegions records the kernel-region totals of one probed solve. Only
// the regions of the solve's own scheme exist; the other scheme's come from a
// coverage probe.
func (b *bench) recordRegions(s solved, before, after time.Duration) {
	var regions time.Duration
	for name, d := range s.probe.total {
		regions += d
		b.add("core.region."+name+"_s", b.cal(d, before, after))
	}
	if s.cfg.Scheme == b.w.Scheme {
		b.add("core.region.launches", float64(s.probe.launches)/float64(s.cfg.Steps))
		b.add("core.self_s", b.cal(s.step-regions, before, after))
	}
}

// recordCounts records the work counters of one solve: what the time was
// spent on.
func (b *bench) recordCounts(res *core.Result) {
	c := res.Counter
	b.add("core.events", float64(c.TotalEvents()))
	b.add("core.segments", float64(c.Segments))
	b.add("events.facets", float64(c.FacetEvents))
	b.add("events.collisions", float64(c.CollisionEvents))
	b.add("xs.lookups", float64(c.XSLookups))
	if c.XSLookups > 0 {
		b.add("xs.steps_per_lookup", float64(c.XSSearchSteps)/float64(c.XSLookups))
	} else {
		b.add("xs.steps_per_lookup", 0)
	}
	b.add("tally.flushes", float64(c.TallyFlushes))
	b.add("tally.conflicts", float64(res.AtomicConflicts))
	b.add("rng.draws", float64(c.RNGDraws))
	b.add("mesh.density_reads", float64(c.DensityReads))
	if res.Config.Scheme == core.OverEvents {
		b.add("core.oe_rounds", float64(c.OERounds))
		b.add("core.oe_active_fraction", c.OEActiveFraction())
	}
}

// lifecycle times the Simulation operations a solver op does not use but the
// service does on every job: Snapshot, RestoreSimulation and Reset. Run once
// per traced round, outside every op timing.
func (b *bench) lifecycle(s solved, parent int) {
	cfg := s.sim.Config()
	ca := b.calibrate(1, parent)
	t0 := time.Now()
	data := s.sim.Snapshot()
	t1 := time.Now()
	restored, err := core.RestoreSimulation(cfg, data)
	t2 := time.Now()
	if err != nil || restored.StepIndex() != s.sim.StepIndex() {
		b.fail("restore of a fresh snapshot: err=%v", err)
		return
	}
	next := cfg
	next.Seed = mix(cfg.Seed, 1)
	err = restored.Reset(next)
	t3 := time.Now()
	if err != nil {
		b.fail("reset: %v", err)
		return
	}
	cb := b.calibrate(1, parent)
	if parent != 0 {
		b.rec.add(parent, "core.snapshot", 0, "solver", t0, t1)
		b.rec.add(parent, "core.restore", 0, "solver", t1, t2)
		b.rec.add(parent, "core.reset", 0, "solver", t2, t3)
	}
	b.add("core.snapshot_s", b.cal(t1.Sub(t0), ca, cb))
	b.add("core.snapshot_bytes", float64(len(data)))
	b.add("core.restore_s", b.cal(t2.Sub(t1), ca, cb))
	b.add("core.reset_s", b.cal(t3.Sub(t2), ca, cb))
}

// --- verification ------------------------------------------------------------

const (
	conservationTol = 1e-12
	tallyTol        = 1e-12
)

// verifySolve checks one solve on its own: the conservation audit and the
// reference band that catches skipped work.
func (b *bench) verifySolve(what string, round int, res *core.Result) {
	if e := res.Conservation.RelativeError; !(e <= conservationTol) {
		b.fail("round %d %s: conservation error %.3e > %.0e", round, what, e, conservationTol)
	}
	b.add("verify.max_conservation_err", res.Conservation.RelativeError)
	b.checkRef(what, round, float64(res.Counter.TotalEvents()), res.TallyTotal)
}

// verifyPair checks the two solves of one round against each other: thread
// count must not change a single counter, and the tally only in its last bits.
func (b *bench) verifyPair(round int, t1, tP *core.Result) {
	if t1.Counter != tP.Counter {
		b.fail("round %d: counters differ between Threads=1 and Threads=%d:\n t1 %+v\n tP %+v", round, b.P, t1.Counter, tP.Counter)
	}
	diff := relDiff(tP.TallyTotal, t1.TallyTotal)
	if !(diff <= tallyTol) {
		b.fail("round %d: tally differs between Threads=1 and Threads=%d by %.3e relative", round, b.P, diff)
	}
	b.add("verify.tally_rel_diff", diff)
}

// relDiff is |a-b| relative to b; 0 when they are equal (a facet-only problem
// deposits nothing, so both totals are 0).
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Abs(b)
}
