package main

import (
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/service"
)

type kind int

const (
	kindSolver     kind = iota // drives core directly, Threads=1 and Threads=P each round
	kindServeSteps             // HTTP submit -> SSE stream -> result, fs checkpoints
	kindServeMixed             // cache hits, blob-tier hits and misses side by side
	kindFleetSteps             // same jobs through a coordinator and two loopback workers
)

// workload is one set of inputs. Sizes are work-fixed: particle counts,
// steps and round counts are constants, so two runs of one seed do the same
// work and a faster program finishes sooner rather than doing more.
type workload struct {
	Name string
	Why  string
	Kind kind

	// The op's (solver) or job's (service) problem.
	Problem   mesh.Problem
	NX        int
	Particles int
	Steps     int
	Scheme    core.Scheme

	// Rounds is the measured round count at defaultSeconds; it scales with
	// -seconds. OpsPerClient is how many ops each client sends per round
	// (service workloads): more than one keeps the calibration runs a small
	// share of a round whose ops are short.
	Rounds       int
	OpsPerClient int
}

const (
	// defaultSeconds is run_seconds in BENCHMARK.json: the round counts
	// below are sized so the measured phase of every workload takes about
	// this long on the 2-vCPU reference host.
	defaultSeconds = 12
	minRounds      = 4
	// setupRepeats: a service stack is cold-started this many times per run
	// and setup_s is the median.
	setupRepeats = 5

	// serve_mixed: LRU of 16 over a hot set of 32, so half the hot set is
	// always evicted to the blob result tier.
	mixedCacheEntries = 16
	mixedHotSet       = 32
	// Of every mixedBlock ops: 70% resubmit a spec still in the LRU, 15% a
	// hot spec the LRU dropped, 15% are new specs.
	mixedBlock        = 20
	mixedBlockHot     = 14
	mixedBlockEvicted = 3
)

var workloads = []workload{
	{Name: "csp_op", Kind: kindSolver, Problem: mesh.CSP, NX: 512, Particles: 10000, Steps: 1, Scheme: core.OverParticles, Rounds: 30,
		Why: "The paper's headline scheme on its mixed problem: the fused Over Particles loop, facet search, mesh reads and tally flushes all busy; the baseline every kernel change reports on."},
	{Name: "csp_oe", Kind: kindSolver, Problem: mesh.CSP, NX: 512, Particles: 2300, Steps: 1, Scheme: core.OverEvents, Rounds: 30,
		Why: "Same physics through the four Over Events kernels and bank gathers: ~1250 rounds of kernel launches make fork/join and compaction dominant, the regime where two threads lose to one."},
	{Name: "scatter_op", Kind: kindSolver, Problem: mesh.Scatter, NX: 512, Particles: 25000, Steps: 1, Scheme: core.OverParticles, Rounds: 30,
		Why: "Collision-bound: cross-section walks, RNG draws and Collide do the work and the facet/mesh path almost none, so facet work must not move it."},
	{Name: "stream_big", Kind: kindSolver, Problem: mesh.Stream, NX: 1536, Particles: 1000, Steps: 1, Scheme: core.OverParticles, Rounds: 30,
		Why: "Facet-only on mesh arrays several times the private L2: no collisions, no RNG, tally adds elided, and the largest setup; a tally, xs or rng change must show no move here."},
	{Name: "serve_steps", Kind: kindServeSteps, Problem: mesh.CSP, NX: 256, Particles: 2000, Steps: 20, Scheme: core.OverParticles, Rounds: 24, OpsPerClient: 2,
		Why: "The write path of the service: queue, solve, a snapshot and fs blob put per step, SSE, a 137 KB result; the solver is about half the latency, so service and kernel changes both show."},
	{Name: "serve_mixed", Kind: kindServeMixed, Problem: mesh.CSP, NX: 256, Particles: 2000, Steps: 20, Scheme: core.OverParticles, Rounds: 30, OpsPerClient: 4,
		Why: "Reads beside writes: 70% LRU hits, 15% blob-tier hits, 15% new specs competing for the shards; a change that speeds the write path by slowing the hit path shows here as a loss."},
	{Name: "fleet_steps", Kind: kindFleetSteps, Problem: mesh.CSP, NX: 256, Particles: 2000, Steps: 20, Scheme: core.OverParticles, Rounds: 24, OpsPerClient: 2,
		Why: "The serve_steps jobs through a coordinator and two loopback workers: adds only dispatch, SSE watch, a snapshot pull per step, result fetch and leases, so overhead_x here is the fleet hop."},
}

// warmup is the number of leading rounds that are run but not measured: they
// fill caches, grow the heap to its working size and wake the second vCPU.
func (w workload) warmup() int {
	if w.Kind == kindSolver {
		return 3
	}
	return 2 // each service round already runs 2P to 4P jobs
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// smoke shrinks a workload to about a twentieth of its size so the tests can
// run every code path in seconds. Reference bands do not apply at this size.
func (w workload) smoke() workload {
	w.Particles = max(w.Particles/20, 50)
	w.NX = max(w.NX/8, 32)
	if w.Steps > 1 {
		w.Steps = 4
	}
	w.Rounds = 4
	return w
}

// mix derives the seed of round (or job) i from the run seed: splitmix64.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// config is the workload's op as a validated core.Config: the program as
// users run it — default atomic tally, AoS, static schedule, row-major.
func (w workload) config(seed uint64, threads int) core.Config {
	cfg := core.Default(w.Problem)
	cfg.NX, cfg.NY = w.NX, w.NX
	cfg.Particles = w.Particles
	cfg.Steps = w.Steps
	cfg.Scheme = w.Scheme
	cfg.Seed = seed
	cfg.Threads = threads
	cfg.KeepCells = w.keepCells()
	return cfg
}

// keepCells: service jobs return the per-cell tally (the bulk of a result's
// bytes, and what the bit-for-bit check compares); solver ops do not.
func (w workload) keepCells() bool { return w.Kind != kindSolver }

// spec is the workload's job as the wire request a client would send.
func (w workload) spec(seed uint64) service.Spec {
	return service.Spec{
		Problem:   w.Problem.String(),
		NX:        w.NX,
		Particles: w.Particles,
		Steps:     w.Steps,
		Scheme:    w.Scheme.String(),
		Threads:   1,
		KeepCells: w.keepCells(),
		Seed:      &seed,
	}
}
