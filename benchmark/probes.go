package main

import (
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/particle"
	"repro/internal/rng"
	"repro/internal/scene"
	"repro/internal/tally"
	"repro/internal/xs"
)

// The traced run reports every per-layer metric on every workload. Three
// kinds of probe make that true without touching the program:
//
//   - kernel probes time each layer's public function in a tight loop, on
//     particle states, energies and cells taken from the workload's own
//     final bank;
//   - core probes run the workload's config through the parts of the core
//     its own path does not use (the other scheme; for service workloads,
//     Threads=P and the Simulation lifecycle);
//   - stack probes send a handful of the workload's jobs through the serving
//     tiers its own path does not use, including one LRU hit and one
//     blob-tier hit.
//
// Probe samples are kept apart from the workload's own and only fill
// metrics the workload's own path left empty; the report marks them
// "probe".

// probeSink keeps the kernel-probe results alive.
var probeSink float64

// timeLoop times fn, which performs calls calls per invocation, and records
// calibrated nanoseconds per call. fn is repeated until one timing is long
// enough to trust, then timed five times between two calibration runs.
func (b *bench) timeLoop(name string, calls int, fn func()) {
	if calls == 0 {
		return
	}
	reps := 1
	for {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			fn()
		}
		if time.Since(t0) >= 2*time.Millisecond || reps >= 1<<16 {
			break
		}
		reps *= 2
	}
	var raw [5]time.Duration
	ca := b.calibrate(1, 0)
	for i := range raw {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			fn()
		}
		raw[i] = time.Since(t0)
	}
	cb := b.calibrate(1, 0)
	for _, d := range raw {
		b.add(name, b.cal(d, ca, cb)*1e9/float64(reps*calls))
	}
}

// kernelProbes times the public functions of events, xs, tally, rng,
// particle and mesh on inputs from one extra KeepBank solve of the workload's
// config.
func (b *bench) kernelProbes() {
	cfg := b.w.config(mix(b.opts.Seed, 1<<43), 1)
	cfg.KeepBank = true
	res, err := core.Run(cfg)
	if err != nil {
		b.fail("kernel probes: solve: %v", err)
		return
	}
	bank := res.Bank
	n := bank.Len()
	sc, err := scene.Preset(b.w.Problem)
	if err != nil {
		b.fail("kernel probes: scene: %v", err)
		return
	}
	m, err := sc.Build(cfg.NX, cfg.NY)
	if err != nil {
		b.fail("kernel probes: mesh: %v", err)
		return
	}
	ctx := events.Context{Mesh: m, XS: xs.GeneratePair(res.Config.XSPoints),
		WeightCutoff: res.Config.WeightCutoff, EnergyCutoff: res.Config.EnergyCutoff}

	// The bank as plain records, plus the facet each particle would hit.
	ps := make([]particle.Particle, n)
	axes := make([]int8, n)
	dirs := make([]int8, n)
	cells := make([]int, n)
	for i := range ps {
		bank.Load(i, &ps[i])
		p := &ps[i]
		_, axis, dir := events.DistanceToFacet(m, p.X, p.Y, p.UX, p.UY, p.CellX, p.CellY)
		axes[i], dirs[i] = int8(axis), int8(dir)
		cells[i] = m.StorageIndex(int(p.CellX), int(p.CellY))
	}

	b.timeLoop("events.distance_to_facet_ns", n, func() {
		acc := 0.0
		for i := range ps {
			p := &ps[i]
			d, _, _ := events.DistanceToFacet(m, p.X, p.Y, p.UX, p.UY, p.CellX, p.CellY)
			acc += d
		}
		probeSink += acc
	})
	b.timeLoop("events.apply_facet_ns", n, func() {
		var q particle.Particle
		hits := 0
		for i := range ps {
			q = ps[i]
			if events.ApplyFacetReflective(m, &q, int(axes[i]), int(dirs[i])) {
				hits++
			}
		}
		probeSink += float64(hits) + float64(q.CellX)
	})
	b.timeLoop("mesh.density_read_ns", n, func() {
		acc := 0.0
		for i := range ps {
			acc += m.Density(int(ps[i].CellX), int(ps[i].CellY))
		}
		probeSink += acc
	})

	// Cross sections: the solver's lookup is SetIndex(cached bin) + Lookup on
	// both tables. Each probe lookup moves the energy as a collision does
	// (E' uniform in (0.3E, E)), so the walk length matches a real chain.
	capCur, scatCur := xs.NewCursor(ctx.XS.Capture), xs.NewCursor(ctx.XS.Scatter)
	sigA := make([]float64, n)
	sigS := make([]float64, n)
	energies := make([]float64, n)
	for i := range ps {
		e := ps[i].Energy
		if e < res.Config.EnergyCutoff {
			e = particle.SourceEnergy
		}
		energies[i] = e
		capCur.Seek(e)
		scatCur.Seek(e)
		sigA[i], sigS[i] = capCur.Lookup(e), scatCur.Lookup(e)
		ps[i].XSIndex = int32(capCur.Index())
	}
	b.timeLoop("xs.lookup_ns", n, func() {
		x := uint64(0x9E3779B97F4A7C15)
		acc := 0.0
		for i := range ps {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			e := energies[i] * (events.ScatterAlpha + (1-events.ScatterAlpha)*float64(x>>11)/(1<<53))
			capCur.SetIndex(int(ps[i].XSIndex))
			scatCur.SetIndex(int(ps[i].XSIndex))
			acc += capCur.Lookup(e) + scatCur.Lookup(e)
		}
		probeSink += acc
	})
	b.timeLoop("events.collide_ns", n, func() {
		var q particle.Particle
		acc := 0.0
		for i := range ps {
			q = ps[i]
			q.Energy, q.Weight, q.Status = energies[i], 1, particle.Alive
			s := q.Stream(cfg.Seed)
			acc += events.Collide(&ctx, &q, &s, sigA[i], sigS[i]).Deposited
		}
		probeSink += acc
	})

	const blocks = 1 << 14
	b.timeLoop("rng.block_ns", blocks, func() {
		s := rng.NewStream(cfg.Seed, 1)
		var acc uint64
		for i := 0; i < blocks; i++ {
			acc += s.NextBlock()[0]
		}
		probeSink += float64(acc >> 40)
	})

	// Tally: the default atomic tally over the workload's cell sequence,
	// from one goroutine and from P at once.
	tl := tally.New(tally.ModeAtomic, m.NumCells(), b.P)
	b.timeLoop("tally.add_ns", n, func() {
		for _, c := range cells {
			tl.Add(0, c, 1.5)
		}
	})
	b.timeLoop("tally.add_contended_ns", n, func() {
		var wg sync.WaitGroup
		for w := 0; w < b.P; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, c := range cells {
					tl.Add(w, c, 1.5)
				}
			}(w)
		}
		wg.Wait()
	})

	var p particle.Particle
	b.timeLoop("particle.load_store_ns", n, func() {
		for i := 0; i < n; i++ {
			bank.Load(i, &p)
			bank.Store(i, &p)
		}
	})
	idx := make([]int32, 0, n)
	b.timeLoop("particle.gather_status_ns", n, func() {
		idx = bank.GatherStatus(idx[:0], particle.Census)
	})
	b.timeLoop("particle.count_status_ns", n, func() {
		a, c, d := bank.CountStatus()
		probeSink += float64(a + c + d)
	})
}

// coreProbes runs the workload's config through the parts of core its own
// path leaves out: two solver-style rounds give a service workload its
// core.* numbers, and two solves under the other scheme give every workload
// the other scheme's kernel regions.
func (b *bench) coreProbes() {
	if b.w.Kind != kindSolver {
		for i := 0; i < 2; i++ {
			b.solverRound(1<<44+uint64(i), true, true)
		}
	}
	other := b.w
	other.Scheme = core.OverEvents
	if b.w.Scheme == core.OverEvents {
		other.Scheme = core.OverParticles
	}
	for i := 0; i < 2; i++ {
		parent := b.open(true, 0, "bench.op", b.opID())
		ca := b.calibrate(b.P, 0)
		s, err := b.solve(other.config(mix(b.opts.Seed, 1<<45+uint64(i)), b.P), parent, false)
		cb := b.calibrate(b.P, 0)
		b.close(parent)
		if err != nil {
			b.fail("core probe (%v): %v", other.Scheme, err)
			return
		}
		b.recordRegions(s, ca, cb)
		if other.Scheme == core.OverEvents {
			b.add("core.oe_rounds", float64(s.res.Counter.OERounds))
			b.add("core.oe_active_fraction", s.res.Counter.OEActiveFraction())
		}
	}
}

// stackProbe sends three of the workload's jobs, one at a time, through a
// freshly started serving stack (single engine over an fs store, or the
// loopback fleet), then resubmits the last (an LRU hit, the cache holds two)
// and the first (evicted: a blob-tier hit), tracing each.
func (b *bench) stackProbe(fleet bool) {
	dir, err := os.MkdirTemp(b.tmp, "probe-")
	if err != nil {
		b.fail("stack probe: %v", err)
		return
	}
	st, err := startStack(stackOpts{Fleet: fleet, Shards: b.P, CacheEntries: 2, Traced: true, Dir: dir})
	if err != nil {
		b.fail("stack probe: %v", err)
		return
	}
	defer st.close()
	const jobs = 3
	refs := map[uint64]*core.Result{}
	seeds := make([]uint64, jobs, jobs+2)
	for i := range seeds {
		seeds[i] = mix(b.opts.Seed, 1<<46+uint64(i))
	}
	seeds = append(seeds, seeds[jobs-1], seeds[0])
	for i, seed := range seeds {
		op := &jobOp{svcOp: svcOp{Seed: seed, Cat: "hot"}}
		ca := b.calibrate(b.P, 0)
		op.Run = runJob(st, b.w.spec(seed), true)
		if i < jobs {
			op.Cat = "new"
			s, err := b.solve(b.w.config(seed, 1), 0, false)
			if err != nil {
				b.fail("stack probe: bare solve: %v", err)
				return
			}
			op.Bare, refs[seed] = &s, s.res
		}
		cb := b.calibrate(b.P, 0)
		if !b.verifyJob(-2, op, refs[seed]) {
			return
		}
		lat := b.cal(op.Run.latency(), ca, cb)
		b.add("probe.job_s", lat)
		b.traceJob(st, op, 0, ca, cb)
	}
	b.scrape(st)
}
