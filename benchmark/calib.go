package main

import (
	"sync"
	"time"
)

// The calibration kernel is the benchmark's own yardstick: a fixed amount of
// work that never calls repository code, so no later change can move it. Every
// timing is reported in calibrated seconds — raw seconds scaled by how fast
// the host ran this kernel just before and just after the measured op — which
// cancels the drift that raw wall clock on a small shared sandbox carries.
//
// The kernel has two phases over a private 2 MB table, because the host has
// (at least) two ways of being slow and the solver feels both:
//
//   - phase 1, compute: xorshift-indexed reads, one branch on the value read
//     and one dependent FP divide per iteration. It follows core speed.
//   - phase 2, cache: xorshift-indexed read-modify-writes over the same
//     table. 2 MB is the private L2 of the reference host, so this phase
//     slows sharply when a neighbour takes cache away — as the solver does,
//     whose meshes and bank sit at the same edge.
//
// The split (about 60% / 40% of the kernel's time on a quiet host) is the one
// that tracked all of csp, scatter, stream, Over Events and the 20-step job
// best over a 13-minute record of the reference host moving between its fast
// and slow states; README.md has the numbers.
const (
	calibBytes = 2 << 20
	calibWords = calibBytes / 8
	// The iteration counts are sized so one kernel run takes about CalibRefS
	// on the 2-vCPU reference host when it is quiet.
	calibComputeIters = 2_400_000
	calibCacheIters   = 4_500_000
	// CalibRefS is the constant that turns the dimensionless ratio
	// raw/calib back into seconds. It is part of the metric definition:
	// changing it, or the kernel, rescales every *_s metric.
	CalibRefS = 0.040
)

// calibTables holds one private table per calibration goroutine: phase 2
// writes, and goroutines sharing lines would measure the coherence protocol.
var calibTables struct {
	sync.Mutex
	t [][]float64
}

func calibTable(i int) []float64 {
	calibTables.Lock()
	defer calibTables.Unlock()
	for len(calibTables.t) <= i {
		t := make([]float64, calibWords)
		x := uint64(88172645463325252)
		for j := range t {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			t[j] = 1 + float64(x>>11)/(1<<53) // uniform in [1, 2)
		}
		calibTables.t = append(calibTables.t, t)
	}
	return calibTables.t[i]
}

// calibSink keeps the kernel's result alive so the loops cannot be elided.
var calibSink struct {
	sync.Mutex
	v float64
}

// calibKernel runs both phases at 1/scale of their full length.
func calibKernel(t []float64, seed uint64, scale int) float64 {
	x := seed | 1
	acc := 1.0
	for i := 0; i < calibComputeIters/scale; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := t[x&(calibWords-1)]
		if v > 1.5 {
			acc += v / (acc + 1)
		} else {
			acc -= 0.25
		}
	}
	for i := 0; i < calibCacheIters/scale; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Reflecting about 1.5 keeps every entry in [1, 2] and the table's
		// distribution symmetric, so the compute phase's branch stays
		// balanced however often the kernel has run.
		t[x&(calibWords-1)] = 3 - t[x&(calibWords-1)]
	}
	return acc
}

// calib runs the kernel on g goroutines at once and returns the wall time of
// the group. g matches the thread count of the op being calibrated: a
// two-thread op is only as fast as two concurrent kernels are.
func calib(g, scale int) time.Duration {
	tables := make([][]float64, g)
	for i := range tables {
		tables[i] = calibTable(i)
	}
	var wg sync.WaitGroup
	wg.Add(g)
	start := time.Now()
	for i := 0; i < g; i++ {
		go func(i int) {
			defer wg.Done()
			v := calibKernel(tables[i], uint64(i+1), scale)
			calibSink.Lock()
			calibSink.v += v
			calibSink.Unlock()
		}(i)
	}
	wg.Wait()
	return time.Since(start)
}

// calibrated converts a raw duration into calibrated seconds using the
// calibration runs that bracket it. ref is CalibRefS for the full kernel; a
// run with a kernel 1/scale as long (smoke) passes CalibRefS/scale so the
// unit stays the same.
func calibrated(raw, before, after time.Duration, ref float64) float64 {
	mean := (before.Seconds() + after.Seconds()) / 2
	if mean <= 0 {
		return raw.Seconds()
	}
	return raw.Seconds() * ref / mean
}
