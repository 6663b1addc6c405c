package fleet

import "repro/internal/telemetry"

// fleetMetrics is the coordinator's instrument vocabulary — every lease,
// retry, reschedule and heartbeat event the failure-handling machinery
// takes is visible on /metrics, because a fleet whose failovers are
// invisible is a fleet whose failovers are broken.
type fleetMetrics struct {
	leaseRenewals        *telemetry.Counter
	leaseExpirations     *telemetry.Counter
	reschedules          *telemetry.Counter
	retries              *telemetry.Counter
	heartbeats           *telemetry.Counter
	duplicateCompletions *telemetry.Counter
	snapshotPulls        *telemetry.Counter
	storeSeeds           *telemetry.Counter
	dispatches           *telemetry.CounterVec
}

// newFleetMetrics registers the coordinator's families on r; the gauge
// families close over the coordinator and read its registry at scrape time.
func newFleetMetrics(c *Coordinator, r *telemetry.Registry) *fleetMetrics {
	m := &fleetMetrics{
		leaseRenewals: r.Counter("fleet_lease_renewals_total",
			"Proofs of life (heartbeats, stream lines) from workers holding leases; each one keeps all of that worker's leases."),
		leaseExpirations: r.Counter("fleet_lease_expirations_total",
			"Shard leases lost because their worker went a lease TTL without proof of life."),
		reschedules: r.Counter("fleet_reschedules_total",
			"Shards moved to a new worker after losing theirs (silent, crashed, departed or restarted)."),
		retries: r.Counter("fleet_retries_total",
			"Coordinator-side HTTP retries against workers, all endpoints."),
		heartbeats: r.Counter("fleet_heartbeats_total",
			"Worker heartbeats accepted."),
		duplicateCompletions: r.Counter("fleet_duplicate_completions_total",
			"Shard completions reported under a lease no longer held — late answers from presumed-dead workers, discarded."),
		snapshotPulls: r.Counter("fleet_snapshot_pulls_total",
			"Checkpoint snapshots pulled from workers — one per step event advertising a checkpoint newer than the one held."),
		storeSeeds: r.Counter("fleet_store_seeds_total",
			"Shards whose first dispatch carried a seed the engine handed in — a checkpoint handed in at submission or found in its store, e.g. one left by a coordinator before a restart."),
		dispatches: r.CounterVec("fleet_dispatches_total",
			"Shard dispatch attempts by outcome (done, failed, lost, degraded).",
			"outcome"),
	}
	r.GaugeFunc("fleet_workers_alive",
		"Registered workers inside their heartbeat window.",
		func() float64 { return float64(c.countWorkers(true)) })
	r.GaugeFunc("fleet_workers_known",
		"Workers ever registered and not yet departed, alive or not.",
		func() float64 { return float64(c.countWorkers(false)) })
	r.GaugeFunc("fleet_leases_active",
		"Shard leases held, summed over workers; a lease lives as long as its worker.",
		func() float64 { return float64(c.countLeases()) })
	return m
}
