package core

import "time"

// RegionProbe observes the solver's timed regions — one per Phase, under the
// phase's canonical name (Phase.String), so the names a probe hears are the
// ones PhaseTimings.Each reports. The intended implementation is a
// performance-counter collector (internal/perfcount.Collector satisfies the
// interface structurally; core deliberately does not import it), which turns
// the per-phase wall times into per-phase cache-miss and instruction counts.
//
// Calls arrive on one goroutine at a time, strictly paired and never nested.
// The serial passes and Over Particles' fused loop are bracketed from the
// solver goroutine, around the whole launch. The four Over Events kernels are
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
// Reset and Restore clear it: a reused simulation profiles only if the new
// owner re-attaches.
func (s *Simulation) SetRegionProbe(p RegionProbe) { s.r.probe = p }

// enter opens phase ph's region and returns the time leave measures it from.
// Only a lead caller (the solver goroutine, or worker 0 in an Over Events
// launch) reports to the probe; the hot paths enter once per kernel call.
func (r *run) enter(ph Phase, lead bool) time.Time {
	if lead && r.probe != nil {
		r.probe.StartRegion(ph.String())
	}
	return time.Now()
}

// leave adds the time since t0 to acc's entry for ph and closes the region.
func (r *run) leave(ph Phase, lead bool, t0 time.Time, acc *PhaseTimings) {
	acc[ph] += time.Since(t0)
	if lead && r.probe != nil {
		r.probe.EndRegion(ph.String())
	}
}
