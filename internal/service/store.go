package service

import (
	"repro/internal/core"
	"repro/internal/service/blob"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// CheckpointKey is the blob-store address of the checkpoint filed under a
// job fingerprint. The engine and the fleet coordinator write the same
// address, which is how either resumes what the other left behind.
func CheckpointKey(fingerprint string) string { return "checkpoints/" + fingerprint }

func resultKey(fingerprint string) string { return "results/" + fingerprint }

// store owns everything the engine files under a job fingerprint: finished
// results — an in-memory LRU over the blob store's persistent tier — and the
// step-boundary checkpoints of unfinished ones. A "" key (an uncacheable
// config) stores and finds nothing; neither do the durable halves when blobs
// is nil.
type store struct {
	lru   *Cache
	blobs blob.Store

	blobHits, blobWrites, checkpointWrites, checkpointFails *telemetry.Counter
	// What the checkpoint cadence acts on and what it decides (see
	// Engine.checkpoint): taken / (taken + skipped) is the share of step
	// boundaries that checkpointed.
	checkpointSeconds *telemetry.Histogram
	checkpointSkipped *telemetry.Counter
}

func newStore(cacheEntries int, blobs blob.Store, r *telemetry.Registry) *store {
	return &store{
		lru:   NewCache(cacheEntries),
		blobs: blobs,
		blobHits: r.Counter("neutral_blob_result_hits_total",
			"Submissions served from the blob store's persistent result tier (memory-cache misses that skipped a solve)."),
		blobWrites: r.Counter("neutral_blob_result_writes_total",
			"Completed results persisted into the blob store."),
		checkpointWrites: r.Counter("neutral_checkpoint_writes_total",
			"Snapshot files written at timestep boundaries."),
		checkpointFails: r.Counter("neutral_checkpoint_write_failures_total",
			"Snapshot writes that failed; each also surfaces as a job warning."),
		checkpointSeconds: r.Histogram("neutral_checkpoint_seconds",
			"Measured cost of one checkpoint (snapshot encode plus, for a durable key, the store put) — the number the checkpoint cadence spaces the next one by.",
			telemetry.ExpBuckets(0.0001, 4, 8)), // 0.1ms .. ~1.6s
		checkpointSkipped: r.Counter("neutral_checkpoint_skipped_total",
			"Step boundaries that took no checkpoint because the cost budget since the last one was not yet spent."),
	}
}

// persists reports whether cfg's result lives in the blob tier as well as
// the LRU. Only plain single runs do: the wire form carries no particle bank,
// and an ensemble's per-replica history and statistics live with its entry.
func (s *store) persists(key string, cfg core.Config) bool {
	return s.durable(key) && cfg.Replicas <= 1 && !cfg.KeepBank
}

// get finds the result filed under key: in the LRU, else in the blob tier —
// left by another engine over the same store, or by this process before a
// restart — which files it into the LRU. cfg is the requesting config; a
// result decoded from the blob tier, whose wire form carries none, echoes it.
func (s *store) get(key string, cfg core.Config) (*Filed, *stats.Ensemble, bool) {
	if key == "" {
		return nil, nil, false
	}
	if res, ens, ok := s.lru.entry(key); ok || !s.persists(key, cfg) {
		return res, ens, ok
	}
	data, err := s.blobs.Get(resultKey(key))
	if err != nil {
		return nil, nil, false
	}
	res, err := ParseFiled(data, cfg)
	if err != nil {
		// Corrupt entry: drop it so the next put re-persists cleanly.
		s.blobs.Delete(resultKey(key))
		return nil, nil, false
	}
	s.lru.put(key, res, nil)
	s.blobHits.Inc()
	return res, nil, true
}

// recent is get against the LRU alone — the worker's pop-time re-check for
// an identical job this engine finished while the asker queued.
func (s *store) recent(key string) (*Filed, bool) {
	if key == "" {
		return nil, false
	}
	res, _, ok := s.lru.entry(key)
	return res, ok
}

// put files a fresh result (with an ensemble's merged statistics) under key,
// for the LRU and the blob tier's bytes alike; an uncacheable result ("" key)
// is its job's alone. The blob write is best-effort: a restarted process, or a
// stateless replica sharing the store, then serves it without a solve.
func (s *store) put(key string, cfg core.Config, f *Filed, ens *stats.Ensemble) {
	if key == "" {
		return
	}
	s.lru.put(key, f, ens)
	if s.persists(key, cfg) {
		if data, err := s.lru.resultJSON(key, f, false); err == nil && s.blobs.Put(resultKey(key), data) == nil {
			s.blobWrites.Inc()
		}
	}
}

// durable reports whether anything filed under key reaches the blob store —
// in particular, whether its jobs' checkpoints are written there.
func (s *store) durable(key string) bool { return s.blobs != nil && key != "" }

// loadCheckpoint returns the checkpoint filed under key, if any. It may have
// been taken under another execution strategy than the job now asking, which
// core.RestoreSimulation accepts by design.
func (s *store) loadCheckpoint(key string) ([]byte, bool) {
	if !s.durable(key) {
		return nil, false
	}
	data, err := s.blobs.Get(CheckpointKey(key))
	return data, err == nil
}

// saveCheckpoint files a step-boundary snapshot under a durable key.
func (s *store) saveCheckpoint(key string, snapshot []byte) error {
	err := s.blobs.Put(CheckpointKey(key), snapshot)
	if err == nil {
		s.checkpointWrites.Inc()
	} else {
		s.checkpointFails.Inc()
	}
	return err
}

// dropCheckpoint removes key's checkpoint: the job finished, or the
// checkpoint would not restore.
func (s *store) dropCheckpoint(key string) {
	if s.durable(key) {
		s.blobs.Delete(CheckpointKey(key))
	}
}
