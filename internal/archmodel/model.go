package archmodel

import (
	"math"

	"repro/internal/core"
	"repro/internal/particle"
	"repro/internal/tally"
)

// Instruction-cost coefficients: scalar operations per unit of work,
// estimated from the mini-app's inner loops (arithmetic + branches +
// address math). Absolute values shift all devices together; only ratios
// across devices and schemes shape the paper's comparisons.
const (
	opsSegment   = 60.0  // three distance calcs, min select, position update
	opsFacet     = 22.0  // nested boundary branches, cell update
	opsCollision = 210.0 // weight/energy update, trig, log
	opsRNGBlock  = 85.0  // 20 Threefry rounds + key schedule + conversion
	opsXSInterp  = 46.0  // two table interpolations + clamping
	opsXSStep    = 3.0   // one linear-search step
	opsSlotScan  = 4.0   // Over Events status check per slot
	opsRecord    = 34.0  // Over Events record load+store per active slot
	opsFlush     = 10.0  // tally address math
)

// Options select the operating point for a prediction.
type Options struct {
	// Threads is the logical thread count (CPU only); 0 means the
	// device maximum. GPUs ignore it.
	Threads int
	// FastMem places mesh and particle data in the high-bandwidth tier
	// (KNL MCDRAM, paper Fig 10).
	FastMem bool
	// Vectorised enables SIMD execution of the Over Events kernels
	// (paper Fig 8). Over Particles never vectorises profitably (§VI-G).
	Vectorised bool
	// Tally selects the tally implementation being modelled.
	Tally tally.Mode
	// MergePerStep charges a full tally merge every timestep (Fig 7
	// discussion).
	MergePerStep bool
	// CompactPlacement fills SMT siblings before cores (KMP compact);
	// default fills cores first then SMT ways (scaling studies).
	CompactPlacement bool
	// RegisterCap caps GPU registers per thread (paper §VI-H); 0 keeps
	// the kernel's natural register count.
	RegisterCap int
	// ForceSoftwareAtomics disables the P100's hardware fp64 atomicAdd
	// to reproduce the paper's 1.20x intrinsic measurement (§VII-E).
	ForceSoftwareAtomics bool
}

// PaperOptions is the paper's operating point on d: every thread, compact
// placement, atomic tally, data in the fast tier where d has one.
func PaperOptions(d *Device, vectorised bool) Options {
	return Options{Tally: tally.ModeAtomic, CompactPlacement: true,
		Vectorised: vectorised, FastMem: d.FastMem != nil}
}

// Prediction is a modelled runtime with its component breakdown.
type Prediction struct {
	Device  string
	Seconds float64

	// Component seconds. Seconds = max(Compute, Latency, Bandwidth) +
	// Atomics + Sync + Merge: compute, latency-bound misses and
	// streaming overlap; atomic serialisation, kernel synchronisation
	// and tally merging do not.
	Compute   float64
	Latency   float64
	Bandwidth float64
	Atomics   float64
	Sync      float64
	MergeTime float64

	// KernelCompute breaks Over Events compute seconds down by kernel
	// for the vectorisation study (Fig 8): keys "event", "collision",
	// "facet", "tally".
	KernelCompute map[string]float64

	// TallySeconds estimates time attributable to tallying (atomic
	// serialisation plus tally-miss latency), for the paper's "50% of
	// runtime (Over Particles) vs 22% (Over Events)" profile.
	TallySeconds float64

	// Occupancy is the modelled warp occupancy (GPU only).
	Occupancy float64
}

// TallyFraction is TallySeconds / Seconds.
func (p *Prediction) TallyFraction() float64 {
	if p.Seconds == 0 {
		return 0
	}
	return p.TallySeconds / p.Seconds
}

// Predict prices the workload on the device at the given operating point.
func Predict(d *Device, w Workload, opt Options) Prediction {
	if d.Kind == GPU {
		return predictGPU(d, w, opt)
	}
	return predictCPU(d, w, opt)
}

// cpuPlacement resolves how threads map onto cores and sockets.
type cpuPlacement struct {
	threads     int
	activeCores int
	perCore     float64 // threads per active core
	spansNUMA   bool
	remoteFrac  float64 // fraction of accesses paying the NUMA penalty
	// socketsUsed ramps 1..NUMADomains as cores come online across
	// sockets; memory controllers (bandwidth) come with them.
	socketsUsed float64
}

func place(d *Device, opt Options) cpuPlacement {
	t := opt.Threads
	if t <= 0 || t > d.MaxThreads() {
		t = d.MaxThreads()
	}
	var p cpuPlacement
	p.threads = t
	if opt.CompactPlacement {
		// Fill SMT siblings first: cores come online one at a time.
		p.activeCores = (t + d.SMTWays - 1) / d.SMTWays
	} else {
		// Fill cores first, then wrap onto SMT siblings.
		p.activeCores = t
		if p.activeCores > d.Cores {
			p.activeCores = d.Cores
		}
	}
	p.perCore = float64(t) / float64(p.activeCores)
	p.socketsUsed = 1
	if d.NUMADomains > 1 {
		coresPerSocket := d.Cores / d.NUMADomains
		if p.activeCores > coresPerSocket {
			p.spansNUMA = true
			// First-touch data lives on socket 0; the farther
			// socket's threads pay the remote penalty. Parallel
			// first-touch spreads pages, so each occupied socket
			// contributes its controllers proportionally.
			remoteCores := p.activeCores - coresPerSocket
			p.remoteFrac = float64(remoteCores) / float64(p.activeCores)
			p.socketsUsed = 1 + float64(remoteCores)/float64(coresPerSocket)
		}
	}
	return p
}

// effectiveLatency picks the tier a working set resolves to and applies
// NUMA penalties.
func effectiveLatency(d *Device, tier MemTier, wsBytes float64, p cpuPlacement) float64 {
	switch {
	case wsBytes <= d.L2Bytes:
		return 12 // ns, L2-class hit
	case d.LLCBytes > 0 && wsBytes <= d.LLCBytes:
		return 38 // ns, LLC-class hit
	default:
		return tier.LatencyNs + p.remoteFrac*d.NUMAPenaltyNs
	}
}

func predictCPU(d *Device, w Workload, opt Options) Prediction {
	p := place(d, opt)
	tier := d.Tier(opt.FastMem)

	pred := Prediction{Device: d.Name, KernelCompute: map[string]float64{}}

	// ---- Compute ---------------------------------------------------
	// Scalar operation counts per kernel (shared by both schemes; Over
	// Events adds sweep/record overheads).
	opsEvent := w.Segments*opsSegment +
		w.XSLookups*opsXSInterp + w.XSSearchSteps*opsXSStep
	opsColl := w.Collisions*opsCollision + w.RNGDraws*opsRNGBlock
	opsFacetK := w.Facets * opsFacet
	opsTallyK := w.TallyFlushes * opsFlush

	if w.Scheme == core.OverEvents {
		// Every kernel scans the whole list; active slots move their
		// record through memory ("particles are gathered from memory").
		opsEvent += w.OESlotSweeps/4*opsSlotScan + w.Segments*opsRecord
		opsColl += w.OESlotSweeps / 4 * opsSlotScan
		opsFacetK += w.OESlotSweeps / 4 * opsSlotScan
		opsTallyK += w.OESlotSweeps / 4 * opsSlotScan
	}
	// SoA on CPU costs extra address math per field access in the
	// particle-resident loop (Fig 5's effect is mostly memory; a small
	// compute adder reflects the per-field indexing).
	if w.Layout == particle.SoA && w.Scheme == core.OverParticles {
		opsEvent *= 1.08
	}

	scalarThroughput := float64(p.activeCores) * d.ClockGHz * 1e9 * d.IPC
	vec := func(kernelOps, eff float64) float64 {
		if !opt.Vectorised || w.Scheme != core.OverEvents || eff <= 0 {
			return kernelOps
		}
		speed := 1 + (float64(d.VectorLanes)-1)*eff
		return kernelOps / speed
	}
	kEvent := vec(opsEvent, d.VecEffEvent) / scalarThroughput
	kColl := vec(opsColl, d.VecEffCollision) / scalarThroughput
	kFacet := vec(opsFacetK, d.VecEffFacet) / scalarThroughput
	kTally := opsTallyK / scalarThroughput // atomics never vectorise
	pred.KernelCompute["event"] = kEvent
	pred.KernelCompute["collision"] = kColl
	pred.KernelCompute["facet"] = kFacet
	pred.KernelCompute["tally"] = kTally
	pred.Compute = kEvent + kColl + kFacet + kTally

	// ---- Memory latency ---------------------------------------------
	// Outstanding misses bound latency-limited throughput. Dependent
	// chains cap per-thread MLP near 1 for Over Particles; SMT threads
	// multiply it up to the per-core miss-queue limit — the mechanism
	// behind the paper's hyperthreading observations.
	mlpThread := d.MLPPerThread
	if w.Scheme == core.OverEvents {
		mlpThread = d.MLPPerThreadOE
	}
	outstanding := float64(p.activeCores) * math.Min(d.MLPPerCore, p.perCore*mlpThread)

	missLatNs := 0.0
	// Density reads: random walks over the density mesh. Over Particles
	// keeps a particle's row-neighbour reads in the same cache line
	// (x-crossings reuse the line 7/8 of the time); Over Events has no
	// such locality because each round streams the whole population
	// between touches. The density and tally meshes compete for the same
	// caches, so classification uses their combined footprint.
	combinedWS := w.DensityWorkingSetBytes + w.TallyWorkingSetBytes
	densLat := effectiveLatency(d, tier, combinedWS, p)
	densMissFrac := 1.0
	if w.Scheme == core.OverParticles {
		densMissFrac = 0.5 + 0.5/8
	}
	missLatNs += w.DensityReads * densMissFrac * densLat

	// Tally flushes: RMWs over the tally mesh at the cell being exited.
	// Over Particles flushes consecutive cells along a track, reusing
	// lines exactly like the density reads; the Over Events tally kernel
	// flushes in slot order, so every flush is a fresh random line.
	// Privatisation multiplies the working set by the thread count (the
	// paper's 0.3 GB -> 31 GB example) and adds its own cache pressure.
	tallyMissFrac := 1.0
	if w.Scheme == core.OverParticles {
		tallyMissFrac = densMissFrac
	}
	tallyWS := combinedWS
	if opt.Tally == tally.ModePrivate {
		tallyWS = w.DensityWorkingSetBytes + w.TallyWorkingSetBytes*float64(p.threads)
	}
	tallyLat := effectiveLatency(d, tier, tallyWS, p)
	tallyMissNs := w.TallyFlushes * tallyMissFrac * tallyLat
	if opt.Tally == tally.ModeNull {
		tallyMissNs = 0
	}
	missLatNs += tallyMissNs

	// Cross-section lookups: two random touches per lookup resolving in
	// LLC/L2 (the tables fit), plus sequential walk lines every 8 steps.
	xsLat := effectiveLatency(d, tier, w.XSTableBytes, p)
	xsMissNs := (w.XSLookups*2 + w.XSSearchSteps/8) * xsLat
	missLatNs += xsMissNs

	// Over Events: particle records are gathered per kernel; the
	// record's cache lines miss on every active-slot touch.
	if w.Scheme == core.OverEvents {
		recordLines := math.Ceil(ParticleRecordBytes / 64)
		missLatNs += w.Segments * 2.2 * recordLines * tier.LatencyNs * 0.35
	}
	// A privatised tally pollutes the caches with thread-count copies of
	// the mesh, degrading every other access — the effect the paper
	// blames for privatisation's modest net gain (§VI-F).
	if opt.Tally == tally.ModePrivate {
		missLatNs *= 1.12
	}
	// SoA under Over Particles loads one cache line per field per
	// particle but uses a single element from each — "which exacerbates
	// the memory access and latency issues" (§VI-D). AoS moves the whole
	// record in two lines.
	const soaExtraLines = 13
	soa := w.Layout == particle.SoA && w.Scheme == core.OverParticles
	if soa {
		missLatNs += w.Particles * w.Steps * soaExtraLines * tier.LatencyNs
	}

	pred.Latency = missLatNs / outstanding * 1e-9

	// ---- Bandwidth ---------------------------------------------------
	traffic := 0.0 // bytes
	traffic += w.DensityReads * densMissFrac * 64
	tallyTraffic := 0.0
	if opt.Tally != tally.ModeNull {
		tallyTraffic = w.TallyFlushes * tallyMissFrac * 64 * 2 // RMW moves the line twice
	}
	traffic += tallyTraffic
	// The cross-section tables live in cache; they cost DRAM traffic only
	// on devices whose caches cannot hold them.
	if w.XSTableBytes > math.Max(d.L2Bytes, d.LLCBytes) {
		traffic += (w.XSLookups*2 + w.XSSearchSteps/8) * 64
	}
	if w.Scheme == core.OverEvents {
		// Status sweeps stream one byte per slot per kernel; active
		// slots move their whole record through memory about three
		// record-transfers per segment (event-kernel load+store plus
		// one handler pass).
		traffic += w.OESlotSweeps * 1
		traffic += w.Segments * 2.6 * ParticleRecordBytes
	}
	if soa {
		traffic += w.Particles * w.Steps * soaExtraLines * 64 * 2
	}
	bwAvail := availableBW(d, tier, p)
	pred.Bandwidth = traffic / bwAvail

	// ---- Atomics -----------------------------------------------------
	if opt.Tally == tally.ModeAtomic {
		// Over Events batches every flush into one tight loop,
		// colliding in time; Over Particles spreads them along
		// histories (§VII-A.1).
		conflictPenalty := 1.0
		if w.Scheme == core.OverEvents {
			conflictPenalty = 1.6
		}
		// Every hardware thread can keep one atomic in flight.
		atomicNs := w.TallyFlushes * d.AtomicExtraNs * conflictPenalty
		pred.Atomics = atomicNs / float64(p.threads) * 1e-9
	}

	// ---- Sync (Over Events kernel barriers) ---------------------------
	if w.Scheme == core.OverEvents {
		barrier := d.BarrierNs * (1 + float64(p.threads)/64)
		pred.Sync = w.OERounds * 4 * barrier * 1e-9
	}

	// ---- Tally merge (privatised, per step) ---------------------------
	// The merge folds threads copies of the full tally mesh after the
	// parallel region, at single-core streaming rate — the cost that made
	// per-timestep merging "significantly slower than when using atomic
	// operations" on every architecture the paper tested (§VI-F).
	if opt.Tally == tally.ModePrivate && opt.MergePerStep {
		mergeBytes := w.MeshCells * 8 * float64(p.threads) * 3
		perCore := tier.BandwidthGBs * 1e9 / float64(d.Cores) * d.BWPerCoreFactor
		pred.MergeTime = mergeBytes / perCore * w.Steps
	}

	pred.Seconds = math.Max(pred.Compute, math.Max(pred.Latency, pred.Bandwidth)) +
		pred.Atomics + pred.Sync + pred.MergeTime

	// Tally share of runtime: the atomic serialisation plus the tally
	// accesses' share of whichever bound dominates.
	pred.TallySeconds = pred.Atomics + tallyShareOfBound(
		pred.Compute, pred.Latency, pred.Bandwidth,
		kTally, tallyMissNs/math.Max(missLatNs, 1), tallyTraffic/math.Max(traffic, 1))
	return pred
}

// availableBW is the bandwidth the placement can pull: ramps with active
// cores (each core can sustain a per-core share) and with occupied sockets
// (controllers come online with their socket), saturating at the device
// total.
func availableBW(d *Device, tier MemTier, p cpuPlacement) float64 {
	total := tier.BandwidthGBs * 1e9
	if d.NUMADomains > 1 {
		total *= p.socketsUsed / float64(d.NUMADomains)
	}
	perCore := tier.BandwidthGBs * 1e9 / float64(d.Cores) * d.BWPerCoreFactor
	return math.Min(total, float64(p.activeCores)*perCore)
}

// tallyShareOfBound attributes a slice of the binding roofline term to
// tallying: the tally kernel's compute, the tally misses' share of latency,
// or the tally lines' share of traffic.
func tallyShareOfBound(compute, latency, bandwidth, kTally, latFrac, bwFrac float64) float64 {
	switch {
	case latency >= compute && latency >= bandwidth:
		return latFrac * latency
	case bandwidth >= compute:
		return bwFrac * bandwidth
	default:
		return kTally
	}
}
