package core

import (
	"time"

	"repro/internal/mesh"
)

// Counters instruments the solver. Every count is maintained per worker
// without synchronisation and aggregated after the run; together they form
// the workload description consumed by the architecture performance model
// (internal/archmodel), replacing the paper's VTune/nvprof measurements.
type Counters struct {
	// Event population (paper §IV-A). Escapes counts histories that left
	// the domain through a vacuum boundary — structurally a facet event
	// whose edge's boundary condition ends the history instead of
	// reflecting it (zero on the paper's all-reflective problems).
	FacetEvents     uint64
	CollisionEvents uint64
	CensusEvents    uint64
	Reflections     uint64
	Deaths          uint64
	Escapes         uint64

	// Segments is the number of distance-to-event calculations: one per
	// particle step in Over Particles, one per live particle per round in
	// Over Events.
	Segments uint64

	// Cross-section activity (paper §IV-D, §VI-A).
	XSLookups     uint64 // capture+scatter pair lookups
	XSSearchSteps uint64 // forward-walk steps after the bucket jump

	// Memory behaviour proxies. DensityReads counts cell-centred density
	// loads (random access): one per history start and per cell entered in
	// Over Particles, one per event-kernel visit in Over Events, whose kernels
	// carry nothing between rounds (§V-B) — the value the cost model prices
	// the paper's implementation from. The Over Events event frame holds no
	// density, so the count is also the solver's real number of mesh reads.
	DensityReads uint64
	TallyFlushes uint64 // atomic read-modify-writes onto the tally mesh
	RNGDraws     uint64 // cipher blocks generated

	// Over Events bookkeeping. OERounds counts rounds: a step has as many
	// as its longest history has events, whichever worker ran it.
	// OESlotSweeps counts the particle slots the paper's naive scheme
	// sweeps ("each kernel visits the entire list of particles", §V-B):
	// 4 kernels x bank size per round plus one census sweep per step. It
	// is a *logical* count — the cost model prices the paper's
	// implementation from it — and is independent of the compaction the
	// Go solver actually performs. OEActiveVisits counts the slots the
	// compacted kernels really touch: event-kernel visits equal Segments,
	// collision-kernel visits equal CollisionEvents, the fused
	// tally+facet kernel visits FacetEvents slots, and the census kernel
	// visits CensusEvents, so OEActiveVisits/OESlotSweeps is the active
	// fraction — the share of the naive sweeps that was ever useful work.
	OERounds       uint64
	OESlotSweeps   uint64
	OEActiveVisits uint64

	// Population-control bookkeeping (weight windows, §IV-E). WWRoulette
	// counts roulette games played, WWKills the games lost; WWSplits
	// counts split events, WWChildren the particles they appended. All
	// zero unless Config.WeightWindow is enabled.
	WWRoulette uint64
	WWKills    uint64
	WWSplits   uint64
	WWChildren uint64
}

// Add accumulates other into c.
func (c *Counters) Add(other *Counters) {
	c.FacetEvents += other.FacetEvents
	c.CollisionEvents += other.CollisionEvents
	c.CensusEvents += other.CensusEvents
	c.Reflections += other.Reflections
	c.Deaths += other.Deaths
	c.Escapes += other.Escapes
	c.Segments += other.Segments
	c.XSLookups += other.XSLookups
	c.XSSearchSteps += other.XSSearchSteps
	c.DensityReads += other.DensityReads
	c.TallyFlushes += other.TallyFlushes
	c.RNGDraws += other.RNGDraws
	c.OERounds += other.OERounds
	c.OESlotSweeps += other.OESlotSweeps
	c.OEActiveVisits += other.OEActiveVisits
	c.WWRoulette += other.WWRoulette
	c.WWKills += other.WWKills
	c.WWSplits += other.WWSplits
	c.WWChildren += other.WWChildren
}

// OEActiveFraction reports the share of the naive scheme's slot sweeps that
// touched an in-flight particle — what compaction saves is 1 minus this.
func (c *Counters) OEActiveFraction() float64 {
	if c.OESlotSweeps == 0 {
		return 0
	}
	return float64(c.OEActiveVisits) / float64(c.OESlotSweeps)
}

// TotalEvents sums the three event kinds.
func (c *Counters) TotalEvents() uint64 {
	return c.FacetEvents + c.CollisionEvents + c.CensusEvents
}

// PerParticle scales a count by the particle population.
func PerParticle(count uint64, particles int) float64 {
	if particles == 0 {
		return 0
	}
	return float64(count) / float64(particles)
}

// PhaseTimings records where wallclock went. For Over Events the four
// kernels are timed separately (the paper profiles them individually in
// Fig 8); Over Particles has a single fused loop. An Over Events worker runs
// its kernels on its own share of the particles with no barrier between them,
// so a kernel has no wall of its own: its entry is the mean over workers of
// the time each spent inside it — the kernel's wall at one thread, and at any
// thread count a share of the step's wall. Every other entry is the wall of a
// launch or a serial pass.
type PhaseTimings struct {
	// EventKernel is time computing distances and moving particles
	// (Over Events kernel 1).
	EventKernel time.Duration
	// CollisionKernel handles collisions (kernel 2).
	CollisionKernel time.Duration
	// FacetKernel handles facet crossings (kernel 3).
	FacetKernel time.Duration
	// TallyKernel is the separate atomic flush loop (kernel 4, the
	// paper's vectorisation workaround §VI-G).
	TallyKernel time.Duration
	// Fused is the single Over Particles loop.
	Fused time.Duration
	// Merge is tally shard merging (private tallies only).
	Merge time.Duration
	// Control is the serial population-control pass (weight windows only).
	Control time.Duration
	// Sort is the serial periodic bank sort (Config.SortEvery only).
	Sort time.Duration
}

// OEVisitNs reports the Over Events kernel budget in nanoseconds per visited
// slot: each per-round kernel's phase time over its share of
// Counters.OEActiveVisits — Segments for the event kernel, CollisionEvents and
// FacetEvents for the two handlers. Zero for a kernel that visited nothing.
// The phase time is a mean over workers and the visits a total, so at P
// threads this is the wall a visit costs the step, 1/P of what it costs the
// worker that makes it.
func (r *Result) OEVisitNs() (event, collision, facet float64) {
	per := func(d time.Duration, visits uint64) float64 {
		if visits == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(visits)
	}
	c, ph := &r.Counter, &r.Phases
	return per(ph.EventKernel, c.Segments), per(ph.CollisionKernel, c.CollisionEvents), per(ph.FacetKernel, c.FacetEvents)
}

// Total sums all phases.
func (p PhaseTimings) Total() time.Duration {
	return p.EventKernel + p.CollisionKernel + p.FacetKernel + p.TallyKernel + p.Fused + p.Merge + p.Control + p.Sort
}

// Add returns the per-phase sum p + other.
func (p PhaseTimings) Add(other PhaseTimings) PhaseTimings {
	return PhaseTimings{
		EventKernel:     p.EventKernel + other.EventKernel,
		CollisionKernel: p.CollisionKernel + other.CollisionKernel,
		FacetKernel:     p.FacetKernel + other.FacetKernel,
		TallyKernel:     p.TallyKernel + other.TallyKernel,
		Fused:           p.Fused + other.Fused,
		Merge:           p.Merge + other.Merge,
		Control:         p.Control + other.Control,
		Sort:            p.Sort + other.Sort,
	}
}

// Sub returns the per-phase difference p - other — how step-level timings
// are recovered from the solver's cumulative accumulation.
func (p PhaseTimings) Sub(other PhaseTimings) PhaseTimings {
	return PhaseTimings{
		EventKernel:     p.EventKernel - other.EventKernel,
		CollisionKernel: p.CollisionKernel - other.CollisionKernel,
		FacetKernel:     p.FacetKernel - other.FacetKernel,
		TallyKernel:     p.TallyKernel - other.TallyKernel,
		Fused:           p.Fused - other.Fused,
		Merge:           p.Merge - other.Merge,
		Control:         p.Control - other.Control,
		Sort:            p.Sort - other.Sort,
	}
}

// Each calls fn for every non-zero phase in kernel order, using the
// canonical kebab-case phase names shared by the trace export, the service
// result view, and the CLI summary.
func (p PhaseTimings) Each(fn func(name string, d time.Duration)) {
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"event-kernel", p.EventKernel},
		{"collision-kernel", p.CollisionKernel},
		{"facet-kernel", p.FacetKernel},
		{"tally-kernel", p.TallyKernel},
		{"fused", p.Fused},
		{"merge", p.Merge},
		{"control", p.Control},
		{"sort", p.Sort},
	} {
		if ph.d != 0 {
			fn(ph.name, ph.d)
		}
	}
}

// Leakage reports the vacuum-boundary losses of a run, per domain edge
// (indexed by mesh.Edge): the statistical weight and the weight-energy
// (weight-eV) carried out by escaping histories. All-zero on reflective
// scenes.
type Leakage struct {
	Weight [mesh.NumEdges]float64
	Energy [mesh.NumEdges]float64
}

// TotalWeight sums the leaked weight over the four edges.
func (l *Leakage) TotalWeight() float64 {
	return l.Weight[0] + l.Weight[1] + l.Weight[2] + l.Weight[3]
}

// TotalEnergy sums the leaked weight-energy over the four edges.
func (l *Leakage) TotalEnergy() float64 {
	return l.Energy[0] + l.Energy[1] + l.Energy[2] + l.Energy[3]
}

// Conservation is the per-run audit: with exact loss bookkeeping, birth
// weight-energy must equal deposits plus vacuum leakage plus what is still
// carried by census particles.
type Conservation struct {
	BirthWeight   float64
	FinalWeight   float64 // census + alive weight (dead and escaped carry none)
	BirthEnergy   float64 // weight-eV
	Deposited     float64 // weight-eV flushed into tallies
	InFlight      float64 // weight-eV still on census particles
	Leaked        float64 // weight-eV escaped through vacuum boundaries
	RelativeError float64 // |birth - (deposited + inflight + leaked)| / birth
}
