package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/tally"
	"repro/internal/xs"
)

// Result reports everything a run produced: wallclock and phase timings,
// the instrumentation counters, the tally, and the conservation audit.
//
// A Result served under a fingerprint (Config.Fingerprint) may have been
// computed under another execution strategy than the request's. The tally,
// cells, leakage, conservation audit and physics counters are the same bits
// either way; Config, Wall, Phases, WorkerBusy (hence LoadImbalance) and the
// scheme-local counters (OERounds, OESlotSweeps, OEActiveVisits,
// DensityReads) describe the run that produced it.
type Result struct {
	Config  Config
	Wall    time.Duration
	Phases  PhaseTimings
	Counter Counters
	// WorkerBusy records per-worker busy time, exposing the load
	// imbalance the paper investigates in §VI-C.
	WorkerBusy []time.Duration
	// TallyTotal is the total deposited weight-energy (weight-eV).
	TallyTotal float64
	// Cells is a copy of the per-cell tally (KeepCells only).
	Cells []float64
	// Conservation is the population/energy audit.
	Conservation Conservation
	// AtomicConflicts is always 0: the atomic tally adds with one
	// instruction that cannot retry. The field stays only because
	// benchmark/solver.go reads it, and goes with the next change to
	// benchmark/.
	AtomicConflicts uint64
	// Leakage is the per-edge vacuum-boundary loss tally: the weight and
	// weight-energy carried out by escaped histories. All-zero on
	// reflective scenes; carried across snapshot/resume like the
	// counters.
	Leakage Leakage
	// Bank is the final particle bank (KeepBank only).
	Bank *particle.Bank
}

// LoadImbalance reports max worker busy time over mean busy time; 1.0 is a
// perfect balance.
func (r *Result) LoadImbalance() float64 {
	if len(r.WorkerBusy) == 0 {
		return 1
	}
	var sum, max time.Duration
	for _, b := range r.WorkerBusy {
		sum += b
		if b > max {
			max = b
		}
	}
	mean := float64(sum) / float64(len(r.WorkerBusy))
	if mean == 0 {
		return 1
	}
	return float64(max) / mean
}

// workerState is the per-worker private state: instrumentation counters,
// busy time, and what an Over Events worker reports at a step's join.
type workerState struct {
	id   int
	c    Counters
	busy time.Duration
	oe   oeShare
}

// run holds the solver state for one configuration.
type run struct {
	cfg     Config
	mesh    *mesh.Mesh
	ctx     events.Context
	bank    *particle.Bank
	workers []*workerState

	// birthWeight and birthEnergy are the conservation-audit baselines:
	// exact sums over the records the source sampling stored (weighted
	// and jittered sources make them run-specific). Restored from the
	// snapshot on resume. They also size the tick of every accumulator
	// below (see setBirth).
	birthWeight float64
	birthEnergy float64

	// tly is the energy-deposition tally; leakWeight and leakEnergy are the
	// per-edge vacuum losses, four-cell privatised tallies indexed by
	// mesh.Edge. All three accumulate in fixed point, so what they hold does
	// not depend on which worker deposited what, or when. A nil tly asks
	// setBirth to build all three.
	tly        tally.Tally
	leakWeight *tally.Private
	leakEnergy *tally.Private
	// overflow latches tally.ErrOverflow from a step-boundary read; the
	// next Step and the end of Drive fail with it.
	overflow error

	// base carries counters restored from a snapshot; finish adds it to
	// the live per-worker counters so a resumed run reports the same
	// totals as an uninterrupted one.
	base Counters

	// Over Events scratch: the step's active-index list and the per-event
	// gather buckets (see oeState in overevents.go).
	oe *oeState

	// wwRhoMax is the mesh's peak density, the normalisation of the
	// per-cell weight-window target. Computed at bind time, only when the
	// window is enabled.
	wwRhoMax float64

	// canLeak caches mesh.HasVacuum() at bind time: all-reflective
	// scenes take the historical inlined facet path, vacuum scenes the
	// boundary-condition-aware one.
	canLeak bool

	// logicalCells is the reusable scratch behind tallyCellsLogical: the
	// tally remapped from storage order to the logical row-major order
	// every external view speaks. Nil until a non-row-major run first asks.
	logicalCells []float64
	// sparseCells is the reusable scratch behind tallyNonZeroLogical.
	sparseCells []tally.Cell

	// snapHash and snapScene memoise snapshotIdentity for the current cfg;
	// a nil snapScene means "not computed yet".
	snapHash  [sha256.Size]byte
	snapScene []byte

	// sortKeys/sortPerm are the reusable scratch of the periodic bank sort
	// (SortEvery): packed (cell key, slot) values and the permutation the
	// sort hands to Bank.Permute.
	sortKeys []uint64
	sortPerm []int32

	// nd memoises xs.NumberDensity per material, over mesh.Palette(): a
	// kernel's density gather is nd[mesh.Material(cx, cy)], one byte from
	// the mesh into a table that lives in L1. The number density is the
	// only use the kernels have for a mass density, and the conversion
	// carries an FP divide; doing it once per material at build time
	// leaves every sigmaT bit-identical — the kernels multiply the factor
	// in the exact order xs.Macroscopic evaluates. Densities are painted
	// only at bind time, so the table needs no invalidation.
	nd [mesh.MaxDensities]float64

	// probe, when non-nil, observes the timed kernel regions (see
	// RegionProbe). Nil-guarded at every site: a disabled probe costs one
	// branch per kernel launch.
	probe RegionProbe

	// Cancellation and progress plumbing (RunCtx). stop is polled from
	// the hot loops and stays read-only until a cancel, so the padding
	// keeps it off the cache line of the counters the workers write.
	stop atomic.Bool
	_    [64]byte
	// done counts histories retired (census or death) in the current
	// step; stepTotal is the in-flight population at the step's start;
	// step is the current 0-based timestep. All three feed the progress
	// monitor.
	done      atomic.Int64
	stepTotal atomic.Int64
	step      atomic.Int64
}

// progress assembles a Progress report from the solver's live counters.
func (r *run) progress() Progress {
	return Progress{
		Step:  int(r.step.Load()),
		Steps: r.cfg.Steps,
		Done:  r.done.Load(),
		Total: r.stepTotal.Load(),
	}
}

// bind points the run at cfg: the only code that turns a Config into solver
// state, and so the one place a Threads of 0 becomes GOMAXPROCS. Everything
// that can fail — validation, the scene build, a paint the mesh refused —
// happens before the receiver is touched, so a refused bind leaves the
// previous binding runnable. What the previous binding allocated is kept
// where it still fits; a zero run has nothing to keep and is built from
// scratch. The bank is left unfilled: the caller fills it from the sources
// (populate) or from a snapshot (Simulation.Restore).
func (r *run) bind(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Threads == 0 {
		cfg.Threads = runtime.GOMAXPROCS(0)
	}
	old := r.cfg
	// Mesh: rebuilt on any geometry or scene change. Scene identity is
	// content, not pointer: a re-parsed copy of the same scene file reuses
	// the painted mesh.
	m := r.mesh
	if m == nil || cfg.Scene.Hash() != old.Scene.Hash() || cfg.NX != old.NX || cfg.NY != old.NY {
		var err error
		if m, err = buildMesh(cfg); err != nil {
			return err
		}
	}

	// Nothing below can fail.
	if r.tly != nil && (cfg.Tally != old.Tally || cfg.Threads != old.Threads || m.NumCells() != r.mesh.NumCells()) {
		r.tly = nil // setBirth rebuilds the accumulators
	}
	r.mesh, r.ctx.Mesh = m, m
	// Storage ordering is applied after the scene paint, which speaks
	// logical coordinates, so it never needs to know where a cell's value
	// lives. A kept mesh is re-permuted in place.
	m.SetOrdering(cfg.Ordering)
	for k, rho := range m.Palette() {
		r.nd[k] = xs.NumberDensity(rho)
	}
	r.canLeak = m.HasVacuum()
	r.wwRhoMax = 0
	if cfg.WeightWindow.Enabled {
		r.wwRhoMax = m.MaxDensity() // a pass over the cells
	}
	if r.ctx.XS.Capture == nil || cfg.XSPoints != old.XSPoints {
		r.ctx.XS = xs.GeneratePair(cfg.XSPoints)
	}
	r.ctx.WeightCutoff = cfg.WeightCutoff
	r.ctx.EnergyCutoff = cfg.EnergyCutoff
	if r.bank == nil || cfg.Layout != old.Layout || old.KeepBank {
		// A bank handed out through KeepBank belongs to the previous Result.
		r.bank = particle.NewBank(cfg.Layout, cfg.Particles)
	} else {
		// A population change, or a bank a weight-window run grew: Resize
		// reuses the backing arrays whenever capacity allows, so ensemble
		// replicas never reallocate the bank.
		r.bank.Resize(cfg.Particles)
	}
	r.cfg = cfg
	r.workers = make([]*workerState, cfg.Threads) // fresh counters
	for w := range r.workers {
		r.workers[w] = &workerState{id: w}
	}
	if cfg.Scheme == OverEvents {
		r.ensureOE() // keeps prior scratch when it still fits
	}
	r.snapScene = nil
	r.base = Counters{}
	r.probe = nil
	r.stop.Store(false)
	r.done.Store(0)
	r.step.Store(0)
	r.stepTotal.Store(int64(cfg.Particles))
	return nil
}

// populate fills the bound bank from the scene's sources and the seed.
func (r *run) populate() {
	cfg := r.cfg
	// Replica r of an ensemble owns RNG stream identities
	// [r*Particles, (r+1)*Particles), so replica families never overlap.
	idBase := uint64(cfg.Replica) * uint64(cfg.Particles)
	r.setBirth(particle.PopulateSources(r.bank, r.mesh, cfg.Scene.SourceTerms(), cfg.Timestep, cfg.Seed, idBase))
}

// setBirth records the conservation baselines and readies the accumulators
// for a run born with them: one tick is the finest power of two that keeps
// the birth energy (the birth weight, for the leaked weight) below 2^61, so
// the scale is a function of the run's inputs alone. Accumulators left by a
// previous binding are zeroed in place; bind drops them when their shape no
// longer fits.
func (r *run) setBirth(weight, energy float64) {
	r.birthWeight, r.birthEnergy = weight, energy
	r.overflow = nil
	ws, es := tally.ScaleFor(weight), tally.ScaleFor(energy)
	if r.tly != nil {
		r.tly.Reset(es)
		r.leakWeight.Reset(ws)
		r.leakEnergy.Reset(es)
		return
	}
	r.tly = tally.NewScaled(r.cfg.Tally, r.mesh.NumCells(), r.cfg.Threads, es)
	r.leakWeight = tally.NewPrivate(mesh.NumEdges, r.cfg.Threads, ws)
	r.leakEnergy = tally.NewPrivate(mesh.NumEdges, r.cfg.Threads, es)
}

// escape retires a history at a vacuum boundary: the carried weight-energy
// is charged to the exit edge's leakage tally (never the deposition tally)
// and the record is marked Escaped with zero weight. The deposit register
// was already flushed by the facet handling, so nothing is lost.
func (r *run) escape(ws *workerState, p *particle.Particle, axis, dir int) {
	edge := int(mesh.EdgeOf(axis, dir))
	ws.c.Escapes++
	r.leakWeight.Add(ws.id, edge, p.Weight)
	r.leakEnergy.Add(ws.id, edge, p.Weight*p.Energy)
	p.Weight = 0
	p.Status = particle.Escaped
}

// buildMesh paints the config's scene. A paint the mesh refused
// (mesh.ErrBadDensity, mesh.ErrTooManyDensities) surfaces here: the painting
// methods return nothing.
func buildMesh(cfg Config) (*mesh.Mesh, error) {
	m, err := cfg.Scene.Build(cfg.NX, cfg.NY)
	if err != nil {
		return nil, err
	}
	if err := m.Err(); err != nil {
		return nil, fmt.Errorf("core: density field: %w", err)
	}
	return m, nil
}

// Lifecycle errors.
var (
	// ErrFinished reports a Step on a simulation that has run every
	// configured timestep.
	ErrFinished = errors.New("core: simulation finished")
	// ErrInterrupted reports a Step that was stopped mid-timestep by
	// Interrupt or a canceled Drive context. The interrupted step did not
	// complete; the simulation state is only consistent at the preceding
	// step boundary, so resume from the last Snapshot.
	ErrInterrupted = errors.New("core: step interrupted")
)

// StepFunc observes a simulation at each completed timestep boundary — the
// one step-boundary observer; Drive invokes it between steps, outside every
// timed kernel region. The typical use is per-step telemetry (LastStep is the
// step just completed) and checkpointing: the simulation is at a step
// boundary, so Snapshot is valid inside the callback.
type StepFunc func(*Simulation)

// Simulation is the stateful solver engine: an explicit lifecycle over the
// timestep loop that Run used to hide.
//
//	sim, _ := NewSimulation(cfg)
//	for !sim.Done() {
//		if err := sim.Step(); err != nil { ... }
//		data := sim.Snapshot() // checkpoint at the boundary
//	}
//	res := sim.Finalize()
//
// A run split into Steps — including a Snapshot/RestoreSimulation
// round-trip at any boundary — produces the same particle bank and event
// counters as an uninterrupted Run, bit for bit: the counter-based RNG
// makes every history independent of traversal and of when the process
// hosting it restarts. Reset rebinds the engine to a new configuration
// while reusing every compatible allocation (mesh, cross-section tables,
// bank), which is how sweeps amortise setup across points; Restore does the
// same from a snapshot. The zero Simulation is unbound: it answers only Reset
// and Restore, which build it.
//
// A Simulation is not safe for concurrent use; it owns goroutine pools
// internally during Step.
type Simulation struct {
	r         *run
	res       *Result
	next      int // next 0-based timestep to execute
	finalized bool
	last      StepTiming // the latest completed Step's own timing
}

// StepTiming is the wallclock attribution of one completed timestep: the
// step's own wall — what Step added to Result.Wall — and the phase time it
// added to Result.Phases, so a run's StepTimings sum to its Result's.
type StepTiming struct {
	Step   int
	Wall   time.Duration
	Phases PhaseTimings
}

// LastStep reports the timing of the latest completed Step; the zero
// StepTiming before the first, and after Reset or Restore. A StepFunc reads
// it at each boundary.
func (s *Simulation) LastStep() StepTiming { return s.last }

// NewSimulation validates the configuration and builds a simulation ready
// for its first Step: mesh, cross-section tables, tally, worker state and
// the populated source bank. It is Reset on a zero Simulation.
func NewSimulation(cfg Config) (*Simulation, error) {
	s := new(Simulation)
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// bind rebinds the simulation to cfg at step zero, the bank still to be
// filled; a refused bind changes nothing. The region probe is cleared: a
// reused simulation reports only to an owner that re-attaches.
func (s *Simulation) bind(cfg Config) error {
	r := s.r
	if r == nil {
		r = new(run)
	}
	if err := r.bind(cfg); err != nil {
		return err
	}
	*s = Simulation{r: r, res: &Result{Config: r.cfg}}
	return nil
}

// Config returns the validated configuration the simulation runs.
func (s *Simulation) Config() Config { return s.r.cfg }

// StepIndex reports the next timestep to execute (equivalently, the number
// of completed timesteps).
func (s *Simulation) StepIndex() int { return s.next }

// Steps reports the configured timestep count.
func (s *Simulation) Steps() int { return s.r.cfg.Steps }

// Done reports whether every configured timestep has completed.
func (s *Simulation) Done() bool { return s.next >= s.r.cfg.Steps }

// Elapsed reports the wallclock spent inside completed Steps.
func (s *Simulation) Elapsed() time.Duration { return s.res.Wall }

// TallyTotal reports the energy deposited so far, in weight-eV.
func (s *Simulation) TallyTotal() float64 { return s.r.tallyTotal() }

// TallyCells returns the live per-cell tally at the current step boundary
// (merged for privatised tallies, nil for the null tally), indexed by
// logical row-major cell index whatever the storage ordering. The slice is
// owned by the simulation and invalidated by the next Step or Reset; callers
// needing a stable copy must take one (or run with Config.KeepCells). The
// ensemble driver folds it into its accumulators in place, so replicas add
// zero per-replica tally allocations.
func (s *Simulation) TallyCells() []float64 { return s.r.tallyCellsLogical() }

// Population tallies the bank by particle status.
func (s *Simulation) Population() (alive, census, dead int) {
	return s.r.bank.CountStatus()
}

// Interrupt requests a cooperative stop: the current Step bails out at its
// next poll (within one history for Over Particles, one kernel round for
// Over Events) and returns ErrInterrupted. Drive installs this on context
// cancellation. An interrupted simulation stays interrupted; resume from
// the last Snapshot.
func (s *Simulation) Interrupt() { s.r.stop.Store(true) }

// Step executes the next timestep: census revival (steps after the first),
// one pass of the configured scheme, and the optional per-step tally merge.
// It fails with ErrFinished once every step has run, ErrInterrupted when
// stopped mid-step, and tally.ErrOverflow (wrapped) once a read at an earlier
// boundary has found the deposits outside the fixed-point range.
func (s *Simulation) Step() error {
	if s.Done() {
		return ErrFinished
	}
	r := s.r
	if r.stop.Load() {
		return ErrInterrupted
	}
	if r.overflow != nil {
		return r.overflow
	}
	cfg := r.cfg
	start, phases := time.Now(), s.res.Phases
	if s.next > 0 {
		revived := r.reviveCensus()
		// Reset done before publishing the new total so a concurrent
		// monitor sample never pairs the old retired count with the
		// (smaller) new population.
		r.done.Store(0)
		r.stepTotal.Store(int64(revived))
	}
	if cfg.WeightWindow.Enabled {
		// Population control at the boundary, before the scheme loop:
		// roulette and splitting are shared serial code, so the schemes
		// stay bit-identical under the window.
		r.controlStep(s.res)
	}
	if cfg.SortEvery > 0 && s.next%cfg.SortEvery == 0 {
		// Periodic cell sort at the boundary, after population control so
		// freshly split children are sorted too. Shared serial code like
		// the control step, so the schemes stay bit-identical under it.
		r.sortStep(s.res)
	}
	r.step.Store(int64(s.next))
	switch cfg.Scheme {
	case OverParticles:
		r.stepOverParticles(s.res)
	case OverEvents:
		r.stepOverEvents(s.res)
	default:
		return fmt.Errorf("core: unknown scheme %v", cfg.Scheme)
	}
	if r.stop.Load() {
		s.res.Wall += time.Since(start)
		return ErrInterrupted
	}
	if cfg.Tally == tally.ModePrivate && cfg.MergePerStep {
		r.regionStart("merge")
		t0 := time.Now()
		r.tly.Ticks()
		s.res.Phases.Merge += time.Since(t0)
		r.regionEnd("merge")
	}
	d := time.Since(start)
	s.res.Wall += d
	s.last = StepTiming{Step: s.next, Wall: d, Phases: s.res.Phases.Sub(phases)}
	s.next++
	return nil
}

// Finalize aggregates instrumentation, runs the conservation audit, and
// returns the Result. It may be called once, at any step boundary; a
// simulation finalized before Done reports the partial run. The returned
// Result is owned by the caller; a later Reset detaches the engine from it.
func (s *Simulation) Finalize() *Result {
	if !s.finalized {
		s.r.finish(s.res)
		s.finalized = true
	}
	return s.res
}

// Run executes every remaining timestep and finalizes — the one-shot path
// over the stepwise engine.
func (s *Simulation) Run() (*Result, error) {
	return s.Drive(context.Background(), nil, nil)
}

// Drive executes the remaining timesteps with cooperative cancellation,
// optional live progress, and an optional per-step callback. It is the loop
// RunCtx wraps: a watcher goroutine translates ctx cancellation into the
// stop flag the solver loops poll, and a monitor goroutine samples live
// counters for progress so user callbacks never run inside timed regions.
// onStep, when non-nil, runs between timesteps at each completed boundary.
// A run whose deposits left the fixed-point range returns tally.ErrOverflow
// (wrapped) in place of a Result whose totals would be meaningless.
func (s *Simulation) Drive(ctx context.Context, progress ProgressFunc, onStep StepFunc) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: run canceled: %w", err)
	}
	r := s.r

	quit := make(chan struct{})
	var aux sync.WaitGroup
	if ctx.Done() != nil {
		aux.Add(1)
		go func() {
			defer aux.Done()
			select {
			case <-ctx.Done():
				r.stop.Store(true)
			case <-quit:
			}
		}()
	}
	if progress != nil {
		aux.Add(1)
		go func() {
			defer aux.Done()
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					progress(r.progress())
				case <-quit:
					return
				}
			}
		}()
	}
	stopAux := func() {
		close(quit)
		aux.Wait()
	}

	for !s.Done() {
		err := s.Step()
		if errors.Is(err, ErrInterrupted) {
			break
		}
		if err != nil {
			stopAux()
			return nil, err
		}
		if onStep != nil {
			onStep(s)
		}
	}
	stopAux()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: run canceled: %w", err)
	}
	if r.stop.Load() {
		return nil, ErrInterrupted
	}
	if progress != nil {
		progress(r.progress())
	}
	res := s.Finalize()
	if r.overflow != nil {
		return nil, r.overflow
	}
	return res, nil
}

// Reset rebinds the simulation to a new configuration, reusing every
// allocation the change permits: the mesh and its cross-section tables
// survive resolution-compatible sweeps, and the particle bank survives
// layout-compatible ones (a bank handed out through KeepBank is never
// reused — the previous Result owns it). The bank is repopulated from the
// new config's source and seed. NewSimulation is Reset on a zero Simulation,
// so a Reset simulation is a fresh one by construction. A refused Reset
// leaves the simulation on its previous configuration.
func (s *Simulation) Reset(cfg Config) error {
	if err := s.bind(cfg); err != nil {
		return err
	}
	s.r.populate()
	return nil
}

// Run executes the configured simulation and returns its results.
func Run(cfg Config) (*Result, error) {
	return RunCtx(context.Background(), cfg, nil)
}

// RunCtx is Run with cooperative cancellation and optional live progress:
// a thin loop over the Simulation lifecycle. When ctx is canceled the
// solver loops bail out at their next poll of a shared stop flag — within
// one particle history for Over Particles, within one kernel round for
// Over Events — and RunCtx returns the context's error. progress, when
// non-nil, receives periodic Progress reports from a dedicated monitoring
// goroutine plus one final report before a successful return; it is never
// called after RunCtx returns. The cancellation plumbing costs one
// uncontended atomic load per history (or per kernel chunk), so an
// uncanceled RunCtx matches Run's throughput.
func RunCtx(ctx context.Context, cfg Config, progress ProgressFunc) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// A dead context skips setup entirely: a drained backlog of canceled
	// jobs must not pay bank and mesh construction per job.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: run canceled: %w", err)
	}
	sim, err := NewSimulation(cfg)
	if err != nil {
		return nil, err
	}
	return sim.Drive(ctx, progress, nil)
}

// finish aggregates instrumentation and runs the conservation audit.
func (r *run) finish(res *Result) {
	cfg := r.cfg
	res.WorkerBusy = make([]time.Duration, len(r.workers))
	res.Counter = r.base
	for w, ws := range r.workers {
		res.Counter.Add(&ws.c)
		res.WorkerBusy[w] = ws.busy
	}
	res.Leakage = r.leakage()

	// Conservation audit (meaningless for the null tally).
	res.TallyTotal = r.tallyTotal()
	inFlight := r.bank.TotalEnergy()
	leaked := res.Leakage.TotalEnergy()
	res.Conservation = Conservation{
		BirthWeight: r.birthWeight,
		FinalWeight: r.bank.TotalWeight(),
		BirthEnergy: r.birthEnergy,
		Deposited:   res.TallyTotal,
		InFlight:    inFlight,
		Leaked:      leaked,
	}
	if cfg.Tally != tally.ModeNull {
		res.Conservation.RelativeError =
			math.Abs(r.birthEnergy-(res.TallyTotal+inFlight+leaked)) / r.birthEnergy
	}

	if cfg.KeepCells && cfg.Tally != tally.ModeNull {
		// From the sparse view: one zeroed slice and a store per deposited
		// cell, in the scale setBirth gave the tally — the same bits as the
		// dense view, without building that and copying it.
		res.Cells = make([]float64, r.mesh.NumCells())
		scale := tally.ScaleFor(r.birthEnergy)
		for _, c := range r.tallyNonZeroLogical() {
			res.Cells[c.Index] = scale.Value(c.Ticks)
		}
	}
	if cfg.KeepBank {
		res.Bank = r.bank
	}
}

// tallyTotal reads the deposited total at a step boundary. An overflow is
// latched rather than returned: the callers report a number, and the run
// fails at its next Step or at the end of Drive.
func (r *run) tallyTotal() float64 {
	total, err := r.tly.Total()
	if err != nil {
		r.overflow = fmt.Errorf("core: deposition %w", err)
	}
	return total
}

// leakage reads the per-edge vacuum losses off their accumulators, latching
// an overflow as tallyTotal does.
func (r *run) leakage() (l Leakage) {
	copy(l.Weight[:], r.leakWeight.Cells())
	copy(l.Energy[:], r.leakEnergy.Cells())
	for _, t := range []*tally.Private{r.leakWeight, r.leakEnergy} {
		if _, err := t.Total(); err != nil {
			r.overflow = fmt.Errorf("core: leakage %w", err)
		}
	}
	return l
}

// reviveCensus returns census particles to flight for the next timestep,
// reporting how many it revived (the next step's in-flight population).
func (r *run) reviveCensus() int {
	revived := 0
	var p particle.Particle
	for i := 0; i < r.bank.Len(); i++ {
		if r.bank.StatusOf(i) != particle.Census {
			continue
		}
		r.bank.Load(i, &p)
		p.Status = particle.Alive
		p.TimeToCensus = r.cfg.Timestep
		r.bank.Store(i, &p)
		revived++
	}
	return revived
}

// flush empties the particle's energy-deposition register into the tally
// mesh cell the particle currently occupies. This is the atomic
// read-modify-write the paper identifies at every facet encounter and at
// census. The C mini-app performs the update unconditionally; only
// collisions ever charge the register, so on facet-dominated problems the
// overwhelming majority of those RMWs add exactly 0.0 — zero ticks, the
// additive identity. The Go solver elides that no-op memory operation.
// TallyFlushes still counts every logical flush — the scheme-equivalence
// invariant and the architecture model (which prices the paper's
// unconditional update) both key off the counter, not the elided add.
func (r *run) flush(ws *workerState, p *particle.Particle) {
	if p.Deposit != 0 {
		cell := r.mesh.StorageIndex(int(p.CellX), int(p.CellY))
		r.tly.Add(ws.id, cell, p.Deposit)
		p.Deposit = 0
	}
	ws.c.TallyFlushes++
}

// flushSlot is flush through the bank's deposit field view: it empties slot
// i's deposit register into the tally cell the particle occupies without
// streaming the whole record through a working copy. The Over Events census
// kernel uses it; like flush it elides the zero-deposit no-op.
func (r *run) flushSlot(ws *workerState, i int) {
	cx, cy, dep := r.bank.FlushDeposit(i)
	if dep != 0 {
		r.tly.Add(ws.id, r.mesh.StorageIndex(int(cx), int(cy)), dep)
	}
	ws.c.TallyFlushes++
}

// advance moves the particle along its next segment to the nearest event
// and returns the event type (with facet geometry when applicable). This is
// the canonical segment arithmetic, shared by both schemes so their histories
// agree bit for bit:
//
//   - the facet distance d is (facet − x)·(1/u) per axis (events.AxisDistance);
//   - census competes in time: it wins iff ttc < d·(1/speed), so a tie crosses
//     the facet, and the clock a crossing leaves behind is never negative;
//   - the collision competes in mean free paths: it wins iff mfp ≤ d·σt, ties
//     included, so mfp/σt — the segment's one divide — is paid only when a
//     collision actually happens.
//
// invUX, invUY and invSpeed are the reciprocals of p.UX, p.UY and speed. Over
// Particles keeps them in registers, Over Events in its event frame (oeFrame);
// both recompute them when a collision changes the direction and energy and
// negate one on a reflection, so they are the same bits. The Over Particles
// facet streak and the Over Events event kernel evaluate the same expressions
// on locals for a plain facet segment (see (*run).streak, (*run).eventKernel).
func advance(m *mesh.Mesh, p *particle.Particle, sigmaT, speed, invSpeed, invUX, invUY float64) (ev events.Type, axis, dir int) {
	d, axis, dir := events.DistanceToFacetRecip(m, p.X, p.Y, p.UX, p.UY, invUX, invUY, p.CellX, p.CellY)
	ev = events.Facet
	if p.TimeToCensus < float64(d*invSpeed) {
		d, ev = events.DistanceToCensus(p.TimeToCensus, speed), events.Census
	}
	collides := sigmaT >= events.MinSigmaT
	if collides && p.MFPToCollision <= float64(d*sigmaT) {
		// The quotient can round an ulp past the distance it just beat.
		if dColl := events.DistanceToCollision(p.MFPToCollision, sigmaT); dColl < d {
			d = dColl
		}
		ev = events.Collision
	}

	// Every product that feeds a sum is converted first: the spec's barrier
	// against fusing it into the sum on FMA targets, so this function and
	// the streak round alike whatever each one's compiler pass saw.
	p.X += float64(p.UX * d)
	p.Y += float64(p.UY * d)
	if ev == events.Census {
		p.TimeToCensus = 0
	} else {
		p.TimeToCensus -= float64(d * invSpeed)
	}
	if collides {
		p.MFPToCollision -= float64(d * sigmaT)
	}
	return ev, axis, dir
}

// lookupXS refreshes the particle's cached microscopic cross sections: one
// bucket-table bin search on the tables' shared grid and both interpolations
// from that bin (xs.Pair.Lookup). The search starts from the energy alone, so
// a particle's previous bin no longer steers it; XSIndex still records the
// bin found, because the snapshot format carries it (write-only now: drop it
// at the next format bump). Both schemes call this one function. It is over
// the inlining budget, which is wanted: the fused loop's facet path never
// runs it and should not carry its spills.
func (r *run) lookupXS(ws *workerState, p *particle.Particle) {
	sigmaA, sigmaS, bin, steps := r.ctx.XS.Lookup(p.Energy)
	p.CachedSigmaA, p.CachedSigmaS = sigmaA, sigmaS
	p.XSIndex = int32(bin)
	ws.c.XSLookups++
	ws.c.XSSearchSteps += uint64(steps)
}
