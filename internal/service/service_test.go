package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/scene"
	"repro/internal/telemetry"
)

func smallConfig() core.Config {
	cfg := core.Default(mesh.CSP)
	cfg.NX, cfg.NY = 64, 64
	cfg.Particles = 200
	cfg.Threads = 2
	return cfg
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(4)
	for i := 0; i < 4; i++ {
		if err := q.Push(&Job{id: fmt.Sprintf("j%d", i), key: fmt.Sprintf("k%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Push(&Job{id: "overflow"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("push at capacity: %v, want ErrQueueFull", err)
	}
	if q.Len() != 4 {
		t.Fatalf("len = %d, want 4", q.Len())
	}
	for i := 0; i < 4; i++ {
		j, ok := q.Pop()
		if !ok || j.id != fmt.Sprintf("j%d", i) {
			t.Fatalf("pop %d = %v, %v", i, j, ok)
		}
	}
	pushed, dropped := q.Stats()
	if pushed != 4 || dropped != 1 {
		t.Fatalf("stats = %d pushed, %d dropped", pushed, dropped)
	}
}

func TestQueueRemove(t *testing.T) {
	q := NewQueue(4)
	q.Push(&Job{id: "a", key: "a"})
	q.Push(&Job{id: "b", key: "b"})
	q.Push(&Job{id: "c", key: "c"})
	if !q.Remove("b") {
		t.Fatal("remove existing failed")
	}
	if q.Remove("b") {
		t.Fatal("remove twice succeeded")
	}
	j, _ := q.Pop()
	j2, _ := q.Pop()
	if j.id != "a" || j2.id != "c" {
		t.Fatalf("after remove popped %s, %s", j.id, j2.id)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue(4)
	q.Push(&Job{id: "a"})
	q.Close()
	if err := q.Push(&Job{id: "late"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close: %v", err)
	}
	if j, ok := q.Pop(); !ok || j.id != "a" {
		t.Fatal("close lost the backlog")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on drained closed queue succeeded")
	}
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	q := NewQueue(1)
	got := make(chan string, 1)
	go func() {
		j, ok := q.Pop()
		if ok {
			got <- j.id
		}
	}()
	time.Sleep(10 * time.Millisecond)
	q.Push(&Job{id: "late"})
	select {
	case id := <-got:
		if id != "late" {
			t.Fatalf("popped %s", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop never woke")
	}
}

func TestCacheLRU(t *testing.T) {
	s := newStore(2, nil, telemetry.NewRegistry())
	var cfg core.Config
	r1, r2, r3 := fileResult(&core.Result{}), fileResult(&core.Result{}), fileResult(&core.Result{})
	s.put("a", cfg, r1, nil)
	s.put("b", cfg, r2, nil)
	if got, _, ok := s.get("a", cfg); !ok || got != r1 {
		t.Fatal("miss on fresh entry")
	}
	s.put("c", cfg, r3, nil) // evicts b (least recently used)
	if _, _, ok := s.get("b", cfg); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, _, ok := s.get("a", cfg); !ok {
		t.Fatal("recently used entry evicted")
	}
	st := s.stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	s := newStore(0, nil, telemetry.NewRegistry())
	s.put("a", core.Config{}, fileResult(&core.Result{}), nil)
	if _, _, ok := s.get("a", core.Config{}); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

func TestEngineRunsJob(t *testing.T) {
	e := New(Options{Shards: 2, QueueDepth: 8})
	defer e.Close()
	j, err := e.Submit(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Counter.TotalEvents() == 0 {
		t.Fatal("no events")
	}
	st := j.Status()
	if st.State != StateDone || st.Cached {
		t.Fatalf("status = %+v", st)
	}
	if f := st.Progress.Fraction(); f != 1 {
		t.Fatalf("finished job reports progress %v", f)
	}
}

// TestEngineConcurrentSubmissions is the acceptance load test: many
// distinct jobs submitted at once must all queue and complete.
func TestEngineConcurrentSubmissions(t *testing.T) {
	e := New(Options{Shards: 4, QueueDepth: 16})
	defer e.Close()
	const n = 12
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := smallConfig()
			cfg.Seed = uint64(1000 + i) // distinct configs, no cache overlap
			j, err := e.Submit(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i, j := range jobs {
		if err := j.Wait(ctx); err != nil {
			t.Fatalf("job %d never finished: %v", i, err)
		}
		if _, err := j.Result(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if got := e.Stats().Runs; got != n {
		t.Fatalf("runs = %d, want %d", got, n)
	}
}

// TestEngineCacheHit is the acceptance cache test: a repeat submission
// must be served without re-running the solver and return the identical
// result.
func TestEngineCacheHit(t *testing.T) {
	e := New(Options{Shards: 2, QueueDepth: 8})
	defer e.Close()
	cfg := smallConfig()

	j1, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	r1, err := j1.Result()
	if err != nil {
		t.Fatal(err)
	}

	j2, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	r2, err := j2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Status().Cached {
		t.Fatal("repeat submission not marked cached")
	}
	if r2 != r1 {
		t.Fatal("cache returned a different result object")
	}
	st := e.Stats()
	if st.Runs != 1 {
		t.Fatalf("solver ran %d times, want 1", st.Runs)
	}
	if st.Cache.Hits == 0 {
		t.Fatal("no cache hit recorded")
	}
}

// TestEngineUncacheable: no config is uncacheable. A dense wall across the
// mesh is a scene region, so its job has an identity like any other: the
// second submission is served from the cache and the solver runs once.
func TestEngineUncacheable(t *testing.T) {
	e := New(Options{Shards: 1, QueueDepth: 8})
	defer e.Close()
	csp, err := scene.Preset(mesh.CSP)
	if err != nil {
		t.Fatal(err)
	}
	const pitch = mesh.Extent / 64
	cfg := smallConfig()
	cfg.Scene = csp.WithSources(csp.Sources...)
	cfg.Scene.Regions = append(cfg.Scene.Regions,
		scene.Region{Material: "dense", X0: 0, X1: mesh.Extent, Y0: 30 * pitch, Y1: 34 * pitch})
	for i := 0; i < 2; i++ {
		j, err := e.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if cached := j.Status().Cached; cached != (i == 1) {
			t.Fatalf("submission %d: cached = %t", i, cached)
		}
	}
	if got := e.Stats().Runs; got != 1 {
		t.Fatalf("runs = %d, want 1", got)
	}
}

// TestEngineCancelRunning is the acceptance cancellation test: an
// in-flight job must stop promptly when canceled.
func TestEngineCancelRunning(t *testing.T) {
	e := New(Options{Shards: 1, QueueDepth: 8})
	defer e.Close()
	cfg := smallConfig()
	cfg.NX, cfg.NY = 512, 512
	cfg.Particles = 200000
	cfg.Steps = 10 // tens of seconds of work if left alone
	j, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for it to actually start.
	deadline := time.Now().Add(10 * time.Second)
	for j.Status().State == StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := e.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("canceled job never reached a terminal state: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	if st := j.Status().State; st != StateCanceled {
		t.Fatalf("state = %s, want canceled", st)
	}
	if _, err := j.Result(); err == nil {
		t.Fatal("canceled job produced a result")
	}
}

// TestEngineCancelQueued: canceling a queued job removes it before it ever
// occupies a worker.
func TestEngineCancelQueued(t *testing.T) {
	e := New(Options{Shards: 1, QueueDepth: 8})
	defer e.Close()
	block := make(chan struct{})
	e.runFn = func(ctx context.Context, cfg core.Config, p core.ProgressFunc) (*core.Result, error) {
		select {
		case <-block:
			return &core.Result{Config: cfg}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	first, err := e.Submit(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Seed = 777
	queued, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	if st := queued.Status().State; st != StateCanceled {
		t.Fatalf("queued job state = %s, want canceled", st)
	}
	close(block)
	if err := first.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Runs; got != 1 {
		t.Fatalf("runs = %d, want 1 (canceled job must not run)", got)
	}
}

func TestEngineQueueFull(t *testing.T) {
	e := New(Options{Shards: 1, QueueDepth: 1})
	defer e.Close()
	block := make(chan struct{})
	defer close(block)
	e.runFn = func(ctx context.Context, cfg core.Config, p core.ProgressFunc) (*core.Result, error) {
		select {
		case <-block:
			// Unblocked at teardown with the context still live: a
			// result, not (nil, nil), which the worker would dereference.
			return &core.Result{Config: cfg}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// First job occupies the worker, second fills the queue slot; give
	// the worker a moment to pop the first.
	if _, err := e.Submit(smallConfig()); err != nil {
		t.Fatal(err)
	}
	var err error
	for i := 0; i < 100; i++ {
		cfg := smallConfig()
		cfg.Seed = uint64(i + 2)
		if _, err = e.Submit(cfg); errors.Is(err, ErrQueueFull) {
			break
		}
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue never filled: %v", err)
	}
	if e.Stats().Rejected == 0 {
		t.Fatal("rejection not counted")
	}
}

func TestEngineClose(t *testing.T) {
	e := New(Options{Shards: 2, QueueDepth: 8})
	cfg := smallConfig()
	cfg.NX, cfg.NY = 512, 512
	cfg.Particles = 200000
	cfg.Steps = 10
	j, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		e.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("close hung")
	}
	if st := j.Status().State; !st.Terminal() {
		t.Fatalf("job left in state %s after close", st)
	}
	if _, err := e.Submit(smallConfig()); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

// TestEngineEquivalence: a service-executed run must be bit-identical to a
// direct core.Run of the same config.
func TestEngineEquivalence(t *testing.T) {
	cfg := smallConfig()
	cfg.KeepCells = true
	direct, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Shards: 2, QueueDepth: 8})
	defer e.Close()
	j, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	served, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if served.Counter != direct.Counter {
		t.Errorf("counters differ:\nservice %+v\ndirect  %+v", served.Counter, direct.Counter)
	}
	if served.TallyTotal != direct.TallyTotal {
		// The atomic tally reassociates float adds across threads, so
		// compare to reassociation tolerance here; the facade test
		// pins bit-identity with a deterministic tally.
		rel := (served.TallyTotal - direct.TallyTotal) / direct.TallyTotal
		if rel < -1e-9 || rel > 1e-9 {
			t.Errorf("tallies differ: %v vs %v", served.TallyTotal, direct.TallyTotal)
		}
	}
}

func TestSubmitInvalidConfig(t *testing.T) {
	e := New(Options{Shards: 1, QueueDepth: 4})
	defer e.Close()
	cfg := smallConfig()
	cfg.Particles = -1
	if _, err := e.Submit(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}
