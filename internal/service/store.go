package service

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/service/blob"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// checkpointKey and resultKey are the blob-store addresses of what is filed
// under a job fingerprint. The engine is the only code that reads or writes
// them; a fleet coordinator's pulled checkpoints reach the store through it.
func checkpointKey(fingerprint string) string { return "checkpoints/" + fingerprint }

func resultKey(fingerprint string) string { return "results/" + fingerprint }

// store owns everything the engine files under a job fingerprint: finished
// results — an in-memory LRU over the blob store's persistent tier — and the
// step-boundary checkpoints of unfinished ones. Keys are job fingerprints
// (core.Config.Fingerprint), so a hit carries the tally, cells and leakage a
// fresh solve would reproduce, under whatever execution strategy: identical
// physics replays identical particle histories. A "" key (an uncacheable
// config) stores and finds nothing; neither do the durable halves when blobs
// is nil.
type store struct {
	blobs blob.Store

	// The LRU: at most cap entries (0 keeps none), the front most recently
	// used. mu guards it and its counts.
	mu                      sync.Mutex
	cap                     int
	order                   *list.List
	items                   map[string]*list.Element
	hits, misses, evictions uint64

	blobHits, blobWrites, checkpointWrites, checkpointFails *telemetry.Counter
	// What the checkpoint cadence acts on and what it decides (see
	// Engine.checkpoint): taken / (taken + skipped) is the share of step
	// boundaries that checkpointed.
	checkpointSeconds *telemetry.Histogram
	checkpointSkipped *telemetry.Counter
}

type cacheEntry struct {
	key string
	res *Filed
	// ens carries the merged ensemble statistics of an ensemble job;
	// nil for single-run results.
	ens *stats.Ensemble
}

func newStore(cacheEntries int, blobs blob.Store, r *telemetry.Registry) *store {
	return &store{
		blobs: blobs,
		cap:   cacheEntries,
		order: list.New(),
		items: make(map[string]*list.Element),
		blobHits: r.Counter("neutral_blob_result_hits_total",
			"Submissions served from the blob store's persistent result tier (memory-cache misses that skipped a solve)."),
		blobWrites: r.Counter("neutral_blob_result_writes_total",
			"Completed results persisted into the blob store."),
		checkpointWrites: r.Counter("neutral_checkpoint_writes_total",
			"Checkpoints written to the blob store: taken here at timestep boundaries, or pulled from a fleet worker."),
		checkpointFails: r.Counter("neutral_checkpoint_write_failures_total",
			"Snapshot writes that failed; each also surfaces as a job warning."),
		checkpointSeconds: r.Histogram("neutral_checkpoint_seconds",
			"Measured cost of one checkpoint (snapshot encode plus, for a durable key, the store put) — the number the checkpoint cadence spaces the next one by.",
			telemetry.ExpBuckets(0.0001, 4, 8)), // 0.1ms .. ~1.6s
		checkpointSkipped: r.Counter("neutral_checkpoint_skipped_total",
			"Step boundaries that took no checkpoint because the cost budget since the last one was not yet spent or, without a durable store, GET /snapshot had not yet read the one held."),
	}
}

// persists reports whether cfg's result lives in the blob tier as well as
// the LRU. Only plain single runs do: the stored form carries no particle bank,
// and an ensemble's per-replica history and statistics live with its entry.
func (s *store) persists(key string, cfg core.Config) bool {
	return s.durable(key) && cfg.Replicas <= 1 && !cfg.KeepBank
}

// get finds the result filed under key, with an ensemble's merged statistics
// (nil for a single run): in the LRU, marking it most recently used, else in
// the blob tier — left by another engine over the same store, or by this
// process before a restart — which files it into the LRU. cfg is the
// requesting config; a result read from the blob tier, whose stored form
// carries none, echoes it. Both values are shared by every job served from the
// key and must be treated as immutable.
func (s *store) get(key string, cfg core.Config) (*Filed, *stats.Ensemble, bool) {
	if key == "" {
		return nil, nil, false
	}
	var e *cacheEntry
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.hits++
		s.order.MoveToFront(el)
		e = el.Value.(*cacheEntry)
	} else {
		s.misses++
	}
	s.mu.Unlock()
	if e != nil {
		return e.res, e.ens, true
	}
	if !s.persists(key, cfg) {
		return nil, nil, false
	}
	data, err := s.blobs.Get(resultKey(key))
	if err != nil {
		return nil, nil, false
	}
	res, err := ParseFiled(data, cfg)
	if err != nil {
		// Unreadable (see ParseFiled): drop it so the next put re-persists.
		s.blobs.Delete(resultKey(key))
		return nil, nil, false
	}
	s.insert(key, res, nil)
	s.blobHits.Inc()
	return res, nil, true
}

// put files a fresh result (with an ensemble's merged statistics) under key,
// in the LRU and, as its runs, in the blob tier; an uncacheable result ("" key)
// is its job's alone. The blob write is best-effort: a restarted process, or a
// stateless replica sharing the store, then serves it without a solve.
func (s *store) put(key string, cfg core.Config, f *Filed, ens *stats.Ensemble) {
	if key == "" {
		return
	}
	s.insert(key, f, ens)
	if s.persists(key, cfg) {
		if data, err := f.encode(nil); err == nil && s.blobs.Put(resultKey(key), data) == nil {
			s.blobWrites.Inc()
		}
	}
}

// insert files f into the LRU, evicting the least recently used entry at
// capacity.
func (s *store) insert(key string, f *Filed, ens *stats.Ensemble) {
	if s.cap <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value = &cacheEntry{key: key, res: f, ens: ens}
		s.order.MoveToFront(el)
		return
	}
	s.items[key] = s.order.PushFront(&cacheEntry{key: key, res: f, ens: ens})
	for s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
		s.evictions++
	}
}

// CacheStats is a point-in-time view of the result LRU's effectiveness.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// stats reports the LRU's size and its hit/miss/eviction counts since creation.
func (s *store) stats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CacheStats{
		Entries:   s.order.Len(),
		Capacity:  s.cap,
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
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
	data, err := s.blobs.Get(checkpointKey(key))
	return data, err == nil
}

// saveCheckpoint files a step-boundary snapshot under a durable key.
func (s *store) saveCheckpoint(key string, snapshot []byte) error {
	err := s.blobs.Put(checkpointKey(key), snapshot)
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
		s.blobs.Delete(checkpointKey(key))
	}
}
