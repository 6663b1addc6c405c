package service

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/stats"
)

// Cache is a content-addressed LRU result cache — the memory tier of the
// engine's store. Keys are job fingerprints (core.Config.Fingerprint), so a
// hit is guaranteed to carry the tally, cells and leakage a fresh solve
// would reproduce, under whatever execution strategy: identical physics
// replays identical particle histories. Configs with non-canonicalisable
// hooks (CustomDensity) never reach the cache — Submit refuses to key them.
type Cache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element

	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key string
	res *Filed
	// ens carries the merged ensemble statistics of an ensemble job;
	// nil for single-run results.
	ens *stats.Ensemble

	// wire is the result's JSON wire form while the entry holds one (see
	// resultJSON); nil otherwise.
	wire *encodedResult
}

// encodedResult is one result's wire form, encoded by the first caller that
// needs it and shared by every later one.
type encodedResult struct {
	once sync.Once
	data []byte
	err  error
}

// NewCache returns a cache holding at most capacity results. Capacity 0
// disables caching (every Get misses, Put discards).
func NewCache(capacity int) *Cache {
	return &Cache{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the cached result for the key, marking it most recently
// used. The caller must treat the result as immutable — it is shared by
// every job served from the same key. The entry keeps the cells as runs (see
// Filed); the first call that asks for them builds the dense slice.
func (c *Cache) Get(key string) (*core.Result, bool) {
	res, _, ok := c.GetEntry(key)
	return res, ok
}

// GetEntry is Get plus the ensemble statistics stored alongside an ensemble
// job's merged result (nil for single-run entries). Both values are shared
// and must be treated as immutable.
func (c *Cache) GetEntry(key string) (*core.Result, *stats.Ensemble, bool) {
	f, ens, ok := c.entry(key)
	if !ok {
		return nil, nil, false
	}
	return f.result(), ens, true
}

// entry is GetEntry without building the dense cells: the store's lookup.
func (c *Cache) entry(key string) (*Filed, *stats.Ensemble, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.res, e.ens, true
}

// Put stores the result under the key, evicting the least recently used
// entry at capacity.
func (c *Cache) Put(key string, res *core.Result) {
	c.put(key, fileResult(res), nil)
}

// put stores a filed result together with its ensemble statistics (nil for
// single runs).
func (c *Cache) put(key string, res *Filed, ens *stats.Ensemble) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// A fresh entry, not an update in place: the old one's encoded
		// bytes belong to the old result.
		el.Value = &cacheEntry{key: key, res: res, ens: ens}
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, res: res, ens: ens})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// resultJSON returns the bytes of json.Marshal(resultViewOf(res.result())),
// written from the runs (Filed.encode) — a single-run result on the wire.
// While the cache holds res under key they are
// encoded once and kept with the entry, so the store's persistent tier, the
// job that computed the result and every job later born from a hit on the
// entry write the same slice (callers must not modify it). release drops the
// entry's copy after this call: the computing job's own fetch passes true —
// nobody is known to want the bytes again, and 137 KB per entry is real
// memory — while a cache-hit job's fetch passes false, since a result asked
// for twice is likely to be asked for again. A result the cache does not hold
// (evicted, uncacheable, caching off) is encoded for the caller alone. The
// lookup is not a cache access: it moves no entry and counts no hit.
func (c *Cache) resultJSON(key string, res *Filed, release bool) ([]byte, error) {
	var enc *encodedResult
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		if e := el.Value.(*cacheEntry); e.res == res {
			if e.wire == nil {
				e.wire = &encodedResult{}
			}
			enc = e.wire
			if release {
				e.wire = nil
			}
		}
	}
	c.mu.Unlock()
	if enc == nil {
		return res.encode()
	}
	enc.once.Do(func() { enc.data, enc.err = res.encode() })
	return enc.data, enc.err
}

// Len reports the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// CacheStats is a point-in-time view of cache effectiveness.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Stats reports hit/miss/eviction counts since creation.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.order.Len(),
		Capacity:  c.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
