package core

// RegionProbe observes the solver's timed kernel regions — the same regions,
// under the same canonical kebab-case names, as PhaseTimings.Each reports
// ("event-kernel", "collision-kernel", "facet-kernel", "tally-kernel",
// "fused", "merge", "control", "sort"). The intended implementation is a
// performance-counter collector (internal/perfcount.Collector satisfies the
// interface structurally; core deliberately does not import it), which turns
// the per-phase wall times into per-phase cache-miss and instruction counts.
//
// Calls arrive on one goroutine at a time, strictly paired and never nested.
// The serial regions and Over Particles' "fused" are bracketed from the solver
// goroutine, around the whole launch. The four Over Events kernels are
// bracketed by worker 0 alone, around its own kernel calls: a region is that
// worker's round on its share of the particles, the other workers are mid-step
// on theirs while the probe runs, and a step in which worker 0 has no work
// reports no kernel region. A probe's own time is outside the kernel times in
// PhaseTimings but inside the step's wall and worker 0's busy time —
// counter-profiled runs measure counters, not clean walls. A nil probe costs
// one predictable branch per region.
type RegionProbe interface {
	StartRegion(name string)
	EndRegion(name string)
}

// SetRegionProbe installs (or, with nil, removes) the kernel-region probe.
// Like SetTrace, Reset clears it: a reused simulation profiles only if the
// new owner re-attaches.
func (s *Simulation) SetRegionProbe(p RegionProbe) { s.r.probe = p }

// regionStart opens a probed region; the hot paths call it at most once per
// kernel call, never per particle.
func (r *run) regionStart(name string) {
	if r.probe != nil {
		r.probe.StartRegion(name)
	}
}

// regionEnd closes a probed region.
func (r *run) regionEnd(name string) {
	if r.probe != nil {
		r.probe.EndRegion(name)
	}
}
