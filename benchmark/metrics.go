package main

// metricDef is one row of the metric catalogue. BENCHMARK.json carries the
// name, unit, direction (and bound, for end-to-end metrics); Layer and Moves
// are the interaction table: which module the number belongs to and which
// end-to-end metric, on which workload, it is expected to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that counts as a regression
	Layer  string
	Moves  string
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; all come from untraced rounds only.
//
// A "job" is one unit of user work: for solver workloads a whole
// single-thread solve (NewSimulation + Step + Finalize, what core.Run does),
// for service and fleet workloads submit -> result decoded.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Moves: "solver: median core.NewSimulation per op; service/fleet: median of 5 cold starts: stack start (to /healthz 200; fleet: both workers registered) through the first job's result"},
	{Name: "events_per_s_t1", Unit: "1/s", Better: "higher", Bound: 0.25,
		Moves: "Counters.TotalEvents / calibrated Step wall of the plain single-thread solve: solver: the Threads=1 op; service/fleet: the bare solve of the job's spec in the same round"},
	{Name: "job_p50_s", Unit: "s", Better: "lower", Bound: 0.25,
		Moves: "median calibrated wall of one job"},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Moves: "jobs completed / calibrated wall of the phases they completed in, whole measured phase: service/fleet: P closed-loop clients; solver: one solve at a time"},
	{Name: "overhead_x", Unit: "x", Better: "lower", Bound: 0.25,
		Moves: "median over rounds of job wall / wall of the solver work inside it, same round: solver: whole solve / its Step; service/fleet: job latency / bare solve of the same spec (serve_mixed: misses only)"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20,
		Moves: "VmHWM of the workload's process"},
}

// perLayer is measured in the traced run. Where a workload's own path does
// not exercise a layer, a short coverage probe on the workload's own inputs
// supplies the number (see probes.go), so every metric is a measurement on
// every workload.
var perLayer = []metricDef{
	// core
	{Name: "core.new_s", Unit: "s", Better: "lower", Layer: "core", Moves: "setup_s (stream_big most); overhead_x on solver workloads"},
	{Name: "core.step_s", Unit: "s", Better: "lower", Layer: "core", Moves: "core.events_per_s_p on the workload's scheme"},
	{Name: "core.step_t1_s", Unit: "s", Better: "lower", Layer: "core", Moves: "events_per_s_t1"},
	{Name: "core.events_per_s_p", Unit: "1/s", Better: "higher", Layer: "core", Moves: "the Threads=P throughput: per-layer because a two-thread step on two shared vCPUs does not repeat within any bound (scatter_op: 1.6x between host placements)"},
	{Name: "core.finalize_s", Unit: "s", Better: "lower", Layer: "core", Moves: "job_p50_s, overhead_x on solver workloads (stream_big most)"},
	{Name: "core.reset_s", Unit: "s", Better: "lower", Layer: "core", Moves: "overhead_x, job_p50_s on serve_steps, fleet_steps (worker sim reuse); nothing on solver workloads"},
	{Name: "core.snapshot_s", Unit: "s", Better: "lower", Layer: "core", Moves: "overhead_x, job_p50_s on serve_steps, fleet_steps; nothing on solver workloads"},
	{Name: "core.snapshot_bytes", Unit: "bytes", Better: "lower", Layer: "core", Moves: "blob.put_s, fleet.snapshot_pull_s"},
	{Name: "core.restore_s", Unit: "s", Better: "lower", Layer: "core", Moves: "none on these workloads (no resume); watches the checkpoint path"},
	{Name: "core.region.fused_s", Unit: "s", Better: "lower", Layer: "core", Moves: "events_per_s_t1 on csp_op, scatter_op, stream_big and the service workloads"},
	{Name: "core.region.event-kernel_s", Unit: "s", Better: "lower", Layer: "core", Moves: "events_per_s_t1 on csp_oe"},
	{Name: "core.region.collision-kernel_s", Unit: "s", Better: "lower", Layer: "core", Moves: "events_per_s_t1 on csp_oe"},
	{Name: "core.region.facet-kernel_s", Unit: "s", Better: "lower", Layer: "core", Moves: "events_per_s_t1 on csp_oe"},
	{Name: "core.region.tally-kernel_s", Unit: "s", Better: "lower", Layer: "core", Moves: "events_per_s_t1 on csp_oe"},
	{Name: "core.region.launches", Unit: "count", Better: "lower", Layer: "core", Moves: "core.events_per_s_p on csp_oe only (fork/join per launch)"},
	{Name: "core.self_s", Unit: "s", Better: "lower", Layer: "core", Moves: "core.events_per_s_p on csp_oe only (compaction, gathers, fork/join between kernels)"},
	{Name: "core.parallel_speedup", Unit: "x", Better: "higher", Layer: "core", Moves: "core.events_per_s_p relative to events_per_s_t1"},
	{Name: "core.serial_fraction", Unit: "1", Better: "lower", Layer: "core", Moves: "core.events_per_s_p (Karp-Flatt: what stays serial at P threads)"},
	{Name: "core.load_imbalance", Unit: "x", Better: "lower", Layer: "core", Moves: "core.events_per_s_p on csp_op (static schedule, uneven histories)"},
	{Name: "core.events", Unit: "count", Better: "higher", Layer: "core", Moves: "the work behind events_per_s; must not drop"},
	{Name: "core.segments", Unit: "count", Better: "lower", Layer: "core", Moves: "events.distance_to_facet_ns x this = facet search budget"},
	{Name: "core.oe_rounds", Unit: "count", Better: "lower", Layer: "core", Moves: "core.region.launches on csp_oe"},
	{Name: "core.oe_active_fraction", Unit: "1", Better: "higher", Layer: "core", Moves: "core.self_s on csp_oe (what compaction saves)"},
	// events
	{Name: "events.distance_to_facet_ns", Unit: "ns", Better: "lower", Layer: "events", Moves: "events_per_s_t1 on csp_*, stream_big; predicted none on scatter_op"},
	{Name: "events.apply_facet_ns", Unit: "ns", Better: "lower", Layer: "events", Moves: "events_per_s_t1 on csp_*, stream_big; predicted none on scatter_op"},
	{Name: "events.collide_ns", Unit: "ns", Better: "lower", Layer: "events", Moves: "events_per_s_t1 on scatter_op; none on stream_big"},
	{Name: "events.facets", Unit: "count", Better: "lower", Layer: "events", Moves: "weights the facet pair"},
	{Name: "events.collisions", Unit: "count", Better: "lower", Layer: "events", Moves: "weights collide_ns, xs and rng"},
	{Name: "events.est_share", Unit: "1", Better: "lower", Layer: "events", Moves: "estimated share of core.step_t1_s"},
	// xs
	{Name: "xs.lookup_ns", Unit: "ns", Better: "lower", Layer: "xs", Moves: "events_per_s_t1 on scatter_op; small on csp_*; none on stream_big"},
	{Name: "xs.lookups", Unit: "count", Better: "lower", Layer: "xs", Moves: "weights xs.lookup_ns"},
	{Name: "xs.steps_per_lookup", Unit: "count", Better: "lower", Layer: "xs", Moves: "xs.lookup_ns (table walk length)"},
	{Name: "xs.est_share", Unit: "1", Better: "lower", Layer: "xs", Moves: "estimated share of core.step_t1_s"},
	// tally
	{Name: "tally.add_ns", Unit: "ns", Better: "lower", Layer: "tally", Moves: "events_per_s_t1 on csp_op, csp_oe; small on scatter_op; none on stream_big"},
	{Name: "tally.add_contended_ns", Unit: "ns", Better: "lower", Layer: "tally", Moves: "core.events_per_s_p on csp_op, csp_oe, most of all scatter_op (both workers add into the source region's lines); none on stream_big"},
	{Name: "tally.flushes", Unit: "count", Better: "lower", Layer: "tally", Moves: "logical flushes; zero-deposit ones are elided"},
	{Name: "tally.conflicts", Unit: "count", Better: "lower", Layer: "tally", Moves: "tally.add_contended_ns"},
	{Name: "tally.est_share", Unit: "1", Better: "lower", Layer: "tally", Moves: "estimated share of core.step_t1_s"},
	// rng
	{Name: "rng.block_ns", Unit: "ns", Better: "lower", Layer: "rng", Moves: "events_per_s_t1 on scatter_op; none on stream_big"},
	{Name: "rng.draws", Unit: "count", Better: "lower", Layer: "rng", Moves: "weights rng.block_ns"},
	{Name: "rng.est_share", Unit: "1", Better: "lower", Layer: "rng", Moves: "estimated share of core.step_t1_s"},
	// particle
	{Name: "particle.load_store_ns", Unit: "ns", Better: "lower", Layer: "particle", Moves: "events_per_s_t1, core.events_per_s_p on csp_oe (every kernel loads and stores)"},
	{Name: "particle.gather_status_ns", Unit: "ns", Better: "lower", Layer: "particle", Moves: "events_per_s_t1, core.events_per_s_p on csp_oe (active-set build)"},
	{Name: "particle.count_status_ns", Unit: "ns", Better: "lower", Layer: "particle", Moves: "job_p50_s on serve_steps: x bank x 20 steps (the stepViewOf rescan suspect)"},
	// mesh
	{Name: "mesh.density_read_ns", Unit: "ns", Better: "lower", Layer: "mesh", Moves: "events_per_s_t1 on stream_big, csp_*"},
	{Name: "mesh.density_reads", Unit: "count", Better: "lower", Layer: "mesh", Moves: "weights mesh.density_read_ns"},
	// service
	{Name: "service.queue_wait_s", Unit: "s", Better: "lower", Layer: "service", Moves: "job_p50_s, jobs_per_s on the service workloads (fingerprint-shard collisions)"},
	{Name: "service.run_s", Unit: "s", Better: "lower", Layer: "service", Moves: "job_p50_s on the service workloads"},
	{Name: "service.self_s", Unit: "s", Better: "lower", Layer: "service", Moves: "overhead_x on serve_steps (run minus solver steps minus blob time)"},
	{Name: "service.submit_miss_s", Unit: "s", Better: "lower", Layer: "service", Moves: "job_p50_s on serve_steps; the miss tail of serve_mixed"},
	{Name: "service.cache_hit_s", Unit: "s", Better: "lower", Layer: "service", Moves: "job_p50_s, jobs_per_s on serve_mixed only"},
	{Name: "service.cache_hit_ratio", Unit: "1", Better: "higher", Layer: "service", Moves: "job_p50_s, jobs_per_s on serve_mixed only"},
	{Name: "service.blob_hit_ratio", Unit: "1", Better: "higher", Layer: "service", Moves: "jobs_per_s on serve_mixed (evicted hot specs served without a solve)"},
	// http
	{Name: "http.submit_s", Unit: "s", Better: "lower", Layer: "http", Moves: "job_p50_s on every service workload"},
	{Name: "http.result_s", Unit: "s", Better: "lower", Layer: "http", Moves: "job_p50_s on serve_mixed (result encode dominates a hit)"},
	{Name: "http.result_bytes", Unit: "bytes", Better: "lower", Layer: "http", Moves: "http.result_s"},
	{Name: "http.sse_first_event_s", Unit: "s", Better: "lower", Layer: "http", Moves: "job_p50_s on serve_steps, fleet_steps"},
	{Name: "http.sse_step_lag_s", Unit: "s", Better: "lower", Layer: "http", Moves: "what a coupled client waits per step on serve_steps; fleet.snapshot_pull timing on fleet_steps"},
	{Name: "http.job_p90_s", Unit: "s", Better: "lower", Layer: "http", Moves: "tail of job_p50_s; per-layer because on two shared cores it does not repeat within a tenth"},
	// blob
	{Name: "blob.put_s", Unit: "s", Better: "lower", Layer: "blob", Moves: "overhead_x on serve_steps; none on fleet_steps (mem store)"},
	{Name: "blob.put_bytes", Unit: "bytes", Better: "lower", Layer: "blob", Moves: "blob.put_s"},
	{Name: "blob.puts_per_job", Unit: "count", Better: "lower", Layer: "blob", Moves: "overhead_x on serve_steps (one checkpoint per step today)"},
	{Name: "blob.get_s", Unit: "s", Better: "lower", Layer: "blob", Moves: "job_p50_s on serve_mixed (result tier)"},
	{Name: "blob.delete_s", Unit: "s", Better: "lower", Layer: "blob", Moves: "overhead_x on serve_steps (checkpoint drop on success)"},
	// fleet
	{Name: "fleet.dispatch_s", Unit: "s", Better: "lower", Layer: "fleet", Moves: "overhead_x, job_p50_s on fleet_steps only"},
	{Name: "fleet.snapshot_pull_s", Unit: "s", Better: "lower", Layer: "fleet", Moves: "overhead_x, job_p50_s on fleet_steps only"},
	{Name: "fleet.snapshot_pull_bytes", Unit: "bytes", Better: "lower", Layer: "fleet", Moves: "fleet.snapshot_pull_s"},
	{Name: "fleet.pulls_per_step", Unit: "count", Better: "lower", Layer: "fleet", Moves: "overhead_x on fleet_steps (one full pull per step event today)"},
	{Name: "fleet.result_fetch_s", Unit: "s", Better: "lower", Layer: "fleet", Moves: "overhead_x, job_p50_s on fleet_steps only"},
	{Name: "fleet.hop_s", Unit: "s", Better: "lower", Layer: "fleet", Moves: "overhead_x on fleet_steps (job latency minus worker-side run)"},
	{Name: "fleet.retries", Unit: "count", Better: "lower", Layer: "fleet", Moves: "job_p50_s on fleet_steps; expected 0"},
	{Name: "fleet.reschedules", Unit: "count", Better: "lower", Layer: "fleet", Moves: "counted as failures; expected 0"},
	// telemetry
	{Name: "telemetry.scrape_s", Unit: "s", Better: "lower", Layer: "telemetry", Moves: "none end to end; watches the cost of observability"},
	{Name: "telemetry.scrape_bytes", Unit: "bytes", Better: "lower", Layer: "telemetry", Moves: "telemetry.scrape_s"},
	// process and the benchmark's own health
	{Name: "proc.alloc_mb_per_op", Unit: "MB", Better: "lower", Layer: "process", Moves: "peak_rss_mb; proc.gc_pause_s"},
	{Name: "proc.gc_pause_s", Unit: "s", Better: "lower", Layer: "process", Moves: "job_p50_s tails"},
	{Name: "proc.cpu_s_per_op", Unit: "s", Better: "lower", Layer: "process", Moves: "jobs_per_s under load (CPU a job costs, all threads)"},
	{Name: "calib.raw_s", Unit: "s", Better: "lower", Layer: "process", Moves: "qualifies every timing: raw seconds of one calibration run"},
	{Name: "calib.spread", Unit: "1", Better: "lower", Layer: "process", Moves: "qualifies every timing: interquartile spread of the calibration runs"},
	{Name: "calib.raw_op_s", Unit: "s", Better: "lower", Layer: "process", Moves: "raw, un-normalised median job wall behind job_p50_s"},
	{Name: "trace.overhead_x", Unit: "x", Better: "lower", Layer: "process", Moves: "traced over untraced median job wall, same process, alternating rounds"},
	{Name: "trace.coverage", Unit: "1", Better: "higher", Layer: "process", Moves: "sum of span self times of a traced job / its wall: how much of the job the trace explains"},
	{Name: "verify.max_conservation_err", Unit: "1", Better: "lower", Layer: "process", Moves: "must stay <= 1e-12"},
	{Name: "verify.tally_rel_diff", Unit: "1", Better: "lower", Layer: "process", Moves: "largest relative tally difference between the two solves of one spec in a round; must stay <= 1e-12"},
}
