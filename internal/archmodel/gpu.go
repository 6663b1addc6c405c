package archmodel

import (
	"math"

	"repro/internal/core"
	"repro/internal/tally"
)

// occupancy computes active warps per SM from register pressure — the
// effect behind the paper's §VI-H register study: restricting the Over
// Particles kernel from 102 to 64 registers raised K20X occupancy from 0.31
// to 0.5 and bought 1.6x, while the same cap on the P100 (79 -> 64
// registers) raised occupancy 0.38 -> 0.49 but ran 1.07x *slower*.
func occupancy(d *Device, regsPerThread int) (warps float64, frac float64) {
	if regsPerThread < 1 {
		regsPerThread = 1
	}
	threads := float64(d.RegsPerSM) / float64(regsPerThread)
	warps = math.Floor(threads / float64(d.WarpSize))
	if max := float64(d.MaxWarpsSM); warps > max {
		warps = max
	}
	if warps < 1 {
		warps = 1
	}
	return warps, warps / float64(d.MaxWarpsSM)
}

// spillPenalty models the extra instructions and local-memory traffic a
// register cap induces: the compiler spills the overflow to local memory.
func spillPenalty(natural, cap int) float64 {
	if cap <= 0 || cap >= natural {
		return 1
	}
	spilled := float64(natural - cap)
	// ~0.5% compute overhead per spilled register for this kernel size.
	return 1 + 0.005*spilled
}

func predictGPU(d *Device, w Workload, opt Options) Prediction {
	pred := Prediction{Device: d.Name, KernelCompute: map[string]float64{}}

	regs := d.RegsOP
	if w.Scheme == core.OverEvents {
		regs = d.RegsOE
	}
	natural := regs
	if opt.RegisterCap > 0 && opt.RegisterCap < regs {
		regs = opt.RegisterCap
	}
	warps, occ := occupancy(d, regs)
	pred.Occupancy = occ
	spill := spillPenalty(natural, regs)
	// Spilled registers live in local (device) memory: extra traffic and
	// latency alongside the extra instructions.
	spillMem := 1.0
	if opt.RegisterCap > 0 && opt.RegisterCap < natural {
		spillMem = 1 + 0.002*float64(natural-opt.RegisterCap)
	}

	// ---- Compute -----------------------------------------------------
	opsEvent := w.Segments*opsSegment + w.XSLookups*opsXSInterp + w.XSSearchSteps*opsXSStep
	opsColl := w.Collisions*opsCollision + w.RNGDraws*opsRNGBlock
	opsFacetK := w.Facets * opsFacet
	opsTallyK := w.TallyFlushes * opsFlush
	if w.Scheme == core.OverEvents {
		opsEvent += w.OESlotSweeps/4*opsSlotScan + w.Segments*opsRecord
		opsColl += w.OESlotSweeps / 4 * opsSlotScan
		opsFacetK += w.OESlotSweeps / 4 * opsSlotScan
		opsTallyK += w.OESlotSweeps / 4 * opsSlotScan
	}
	// Divergence: the Over Particles mega-kernel runs warps through deep
	// branches ("threads acting upon the particles will often be
	// divergent"); Over Events' tight kernels diverge less.
	divEff := d.DivergentEff
	if w.Scheme == core.OverEvents {
		divEff *= 2.2
	}
	throughput := d.DPFlopsG * 1e9 * divEff * math.Min(1, occ*2.2)
	totalOps := (opsEvent + opsColl + opsFacetK + opsTallyK) * spill
	pred.Compute = totalOps / throughput
	pred.KernelCompute["event"] = opsEvent * spill / throughput
	pred.KernelCompute["collision"] = opsColl * spill / throughput
	pred.KernelCompute["facet"] = opsFacetK * spill / throughput
	pred.KernelCompute["tally"] = opsTallyK * spill / throughput

	// ---- Memory latency ------------------------------------------------
	// Outstanding misses per SM: warps in flight times per-warp requests,
	// capped by the miss queues. This is the latency-tolerance mechanism
	// that makes the P100 win overall (§VII-E, §VIII-A).
	tier := d.Tier(opt.FastMem)
	outstandingSM := math.Min(d.MSHRsPerSM, warps*d.WarpMLP)
	outstanding := float64(d.Cores) * outstandingSM

	missNs := 0.0
	densMissFrac := 1.0 // random access; GPU L2 too small for the mesh
	if w.DensityWorkingSetBytes <= d.L2Bytes {
		densMissFrac = 0.3
	}
	missNs += w.DensityReads * densMissFrac * tier.LatencyNs
	tallyMissNs := 0.0
	if opt.Tally != tally.ModeNull {
		tallyLat := tier.LatencyNs
		if w.TallyWorkingSetBytes <= d.L2Bytes {
			tallyLat *= 0.3
		}
		tallyMissNs = w.TallyFlushes * tallyLat
	}
	missNs += tallyMissNs
	missNs += (w.XSLookups*2 + w.XSSearchSteps/8) * tier.LatencyNs * 0.6 // partly L2
	if w.Scheme == core.OverEvents {
		recordLines := math.Ceil(ParticleRecordBytes / 64)
		// Coalesced SoA streams hit fewer lines per access.
		missNs += w.Segments * recordLines * tier.LatencyNs * 0.15
	}
	missNs *= spillMem
	pred.Latency = missNs / outstanding * 1e-9

	// ---- Bandwidth -------------------------------------------------------
	traffic := w.DensityReads*densMissFrac*32 + // 32B sectors on GPUs
		(w.XSLookups*2+w.XSSearchSteps/8)*32
	if opt.Tally != tally.ModeNull {
		traffic += w.TallyFlushes * 32 * 2
	}
	if w.Scheme == core.OverEvents {
		traffic += w.OESlotSweeps * 1
		traffic += w.Segments * 2.2 * ParticleRecordBytes * 2
	}
	traffic *= spillMem
	pred.Bandwidth = traffic / (tier.BandwidthGBs * 1e9)

	// ---- Atomics ----------------------------------------------------------
	if opt.Tally == tally.ModeAtomic {
		atomicNs := d.AtomicExtraNs
		if !d.HWAtomicFP64 || opt.ForceSoftwareAtomics {
			atomicNs *= d.CASEmulationFactor
		}
		conflictPenalty := 1.0
		if w.Scheme == core.OverEvents {
			conflictPenalty = 1.6
		}
		// Atomic units pipeline across SMs; serialisation shows up per
		// SM, softened by warp concurrency.
		pred.Atomics = w.TallyFlushes * atomicNs * conflictPenalty /
			(float64(d.Cores) * 16) * 1e-9
	}

	// ---- Kernel launches (Over Events rounds) -----------------------------
	if w.Scheme == core.OverEvents {
		pred.Sync = w.OERounds * 4 * d.BarrierNs * 1e-9
	}

	pred.Seconds = math.Max(pred.Compute, math.Max(pred.Latency, pred.Bandwidth)) +
		pred.Atomics + pred.Sync

	tallyTraffic := 0.0
	if opt.Tally != tally.ModeNull {
		tallyTraffic = w.TallyFlushes * 32 * 2 * spillMem
	}
	pred.TallySeconds = pred.Atomics + tallyShareOfBound(
		pred.Compute, pred.Latency, pred.Bandwidth,
		pred.KernelCompute["tally"], tallyMissNs/math.Max(missNs, 1), tallyTraffic/math.Max(traffic, 1))
	return pred
}
