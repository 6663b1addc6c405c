package archmodel

import (
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/particle"
)

// Workload is the device-independent description of a run: the event and
// memory-access counts the instrumented solver produced, in paper-scale
// units. It is what the paper's hardware measured; the model prices it on
// each device.
type Workload struct {
	Scheme  core.Scheme
	Problem mesh.Problem
	Layout  particle.Layout

	Particles float64
	MeshCells float64
	Steps     float64

	// Event population.
	Facets     float64
	Collisions float64
	Census     float64
	Segments   float64

	// Memory behaviour.
	DensityReads  float64
	TallyFlushes  float64
	XSLookups     float64
	XSSearchSteps float64
	RNGDraws      float64

	// Over Events structure. OESlotSweeps is the paper's naive cost
	// (every kernel sweeps the whole bank); OEActiveVisits is the slots a
	// compaction-based implementation touches (one event-kernel visit per
	// segment, one handler visit per collision/facet, one census-kernel
	// visit per census event). Their ratio is the active fraction the
	// compacted Go solver reports.
	OERounds       float64
	OESlotSweeps   float64
	OEActiveVisits float64

	// DensityWorkingSetBytes and TallyWorkingSetBytes are the bytes of
	// mesh actually touched: the full mesh for stream/csp (particles
	// traverse everywhere under reflective boundaries), a small
	// neighbourhood of the source for scatter (particles die near their
	// birth cell).
	DensityWorkingSetBytes float64
	TallyWorkingSetBytes   float64

	// XSTableBytes is the cross-section tables' footprint.
	XSTableBytes float64
}

// FromResult converts an instrumented run into a workload, scaled from the
// run's mesh/population to the given target scale. Facet-driven counts grow
// linearly with mesh resolution (more facets per track length); collision
// counts depend only on physics and population.
func FromResult(res *core.Result, targetParticles, targetNX int) Workload {
	cfg := res.Config
	c := res.Counter
	pf := float64(targetParticles) / float64(cfg.Particles)
	mf := float64(targetNX) / float64(cfg.NX)

	w := Workload{
		Scheme:    cfg.Scheme,
		Problem:   cfg.Problem,
		Layout:    cfg.Layout,
		Particles: float64(targetParticles),
		MeshCells: float64(targetNX) * float64(targetNX),
		Steps:     float64(cfg.Steps),

		// Facet-driven counts scale with both factors.
		Facets: float64(c.FacetEvents) * pf * mf,
		// Collision counts scale with population only.
		Collisions: float64(c.CollisionEvents) * pf,
		Census:     float64(c.CensusEvents) * pf,

		XSLookups:     float64(c.XSLookups) * pf,
		XSSearchSteps: float64(c.XSSearchSteps) * pf,
		RNGDraws:      float64(c.RNGDraws) * pf,

		XSTableBytes: float64(cfg.XSPoints) * 16 * 2,
	}
	w.Segments = w.Facets + w.Collisions + w.Census
	// Density reads differ by scheme: Over Particles re-reads only after
	// facet crossings (the value stays in a register between events);
	// Over Events re-reads every round. Use the measured counter, scaled
	// like the events that drive it.
	readScale := pf
	if c.FacetEvents > c.CollisionEvents {
		readScale = pf * mf
	}
	w.DensityReads = float64(c.DensityReads) * readScale
	// The deposit register flushes at every facet, census and death.
	w.TallyFlushes = float64(c.TallyFlushes) * pf * mf

	if cfg.Scheme == core.OverEvents {
		// Rounds track the longest history (not the population): they
		// grow with mesh resolution when facets dominate the longest
		// histories, and stay fixed when collisions do.
		roundScale := 1.0
		if w.Facets > w.Collisions {
			roundScale = mf
		}
		w.OERounds = float64(c.OERounds) * roundScale
		w.OESlotSweeps = (4*w.OERounds + w.Steps) * w.Particles
		w.OEActiveVisits = w.Segments + w.Collisions + w.Facets + w.Census
	}

	meshBytes := w.MeshCells * 8
	switch cfg.Problem {
	case mesh.Scatter:
		// Particles stay within a few mean free paths of the source
		// box: the touched region is a small fraction of the mesh.
		w.DensityWorkingSetBytes = meshBytes * 0.01
		w.TallyWorkingSetBytes = meshBytes * 0.01
	default:
		w.DensityWorkingSetBytes = meshBytes
		w.TallyWorkingSetBytes = meshBytes
	}
	return w
}

// MeasureWorkload runs the solver at a reduced calibration scale and scales
// the counts to the paper's configuration for the problem. It is how the
// harness builds the workloads behind Figs 8-14.
func MeasureWorkload(problem mesh.Problem, scheme core.Scheme) (Workload, error) {
	return MeasureWorkloadCfg(problem, scheme, nil)
}

// MeasureWorkloadCfg is MeasureWorkload with a hook to adjust the
// calibration configuration (e.g. the particle layout for Fig 5).
func MeasureWorkloadCfg(problem mesh.Problem, scheme core.Scheme, mod func(*core.Config)) (Workload, error) {
	cfg := core.Default(problem)
	cfg.Scheme = scheme
	cfg.NX, cfg.NY = 256, 256
	cfg.Particles = 1000
	cfg.Threads = 0
	if mod != nil {
		mod(&cfg)
	}
	res, err := core.Run(cfg)
	if err != nil {
		return Workload{}, err
	}
	paper := core.Paper(problem)
	return FromResult(res, paper.Particles, paper.NX), nil
}

// EventsPerParticle reports the mean events per history.
func (w *Workload) EventsPerParticle() float64 {
	if w.Particles == 0 {
		return 0
	}
	return (w.Facets + w.Collisions + w.Census) / w.Particles
}

// ParticleRecordBytes is the per-particle record footprint, from the
// particle package.
const ParticleRecordBytes = float64(particle.BytesPerParticle)
