package fleet

import (
	"bytes"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/service/blob"
	"repro/internal/telemetry"
)

// countingStore is a blob.Store that counts the checkpoint puts and deletes
// it sees, and refuses the puts while failPuts is set.
type countingStore struct {
	blob.Store
	puts, deletes atomic.Int64
	failPuts      atomic.Bool
}

func (s *countingStore) Put(key string, data []byte) error {
	if strings.HasPrefix(key, "checkpoints/") {
		if s.failPuts.Load() {
			return errors.New("injected put failure")
		}
		s.puts.Add(1)
	}
	return s.Store.Put(key, data)
}

func (s *countingStore) Delete(key string) error {
	if strings.HasPrefix(key, "checkpoints/") {
		s.deletes.Add(1)
	}
	return s.Store.Delete(key)
}

// TestDefaultClientsHaveTimeouts pins the client-hygiene satellite: the
// coordinator's default client bounds dial and header wait (but carries no
// whole-request timeout, which would kill SSE watches), and the agent's
// default client has a whole-request timeout.
func TestDefaultClientsHaveTimeouts(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Client.Timeout != 0 {
		t.Errorf("coordinator client Timeout = %v, want 0 (SSE watches must not be cut down)", o.Client.Timeout)
	}
	tr, ok := o.Client.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("coordinator default transport is %T, want *http.Transport", o.Client.Transport)
	}
	if tr.ResponseHeaderTimeout <= 0 {
		t.Error("coordinator default transport has no ResponseHeaderTimeout")
	}
	if tr.DialContext == nil {
		t.Error("coordinator default transport has no bounded dialer")
	}

	a, err := NewAgent(AgentOptions{Coordinator: "http://c", Self: "http://s", Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	if a.opts.Client.Timeout <= 0 {
		t.Error("agent default client has no timeout")
	}
}

// TestDefaultRetryPoliciesJitter pins the thundering-herd satellite: both
// roles' backoffs spread ±20 % over the jitter draw, which do takes from
// math/rand/v2, so a fleet recovering from a coordinator restart does not
// knock in lockstep.
func TestDefaultRetryPoliciesJitter(t *testing.T) {
	c := NewCoordinator(Options{})
	defer c.Close()
	a, err := NewAgent(AgentOptions{Coordinator: "http://c", Self: "http://s", Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	for role, r := range map[string]requester{"coordinator": c.req, "agent": a.join} {
		if lo, mid, hi := r.delay(0, 0), r.delay(0, 0.5), r.delay(0, 1); lo != mid*8/10 || hi != mid*12/10 {
			t.Errorf("%s backoff jitters over [%v, %v] around %v, want ±20 %%", role, lo, hi, mid)
		}
	}
}

// TestStoreSeededDispatch is the coordinator-restart story in miniature: a
// checkpoint a previous coordinator life persisted to the blob store seeds
// the next dispatch of the same shard, so the worker resumes mid-run instead
// of starting over — and the finished shard's checkpoint is cleaned up.
func TestStoreSeededDispatch(t *testing.T) {
	store := blob.NewMem()
	cfg := fastConfig(4242)
	key, cacheable := cfg.Fingerprint()
	if !cacheable {
		t.Fatal("test config must be cacheable")
	}

	// A previous coordinator life pulled this shard's step-2 checkpoint
	// and persisted it before being killed.
	sim, err := core.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Put("checkpoints/"+key, sim.Snapshot()); err != nil {
		t.Fatal(err)
	}

	// The "restarted" coordinator: fresh registry and lease table, its
	// engine over the same store, shard re-submitted from scratch.
	c := newClusterWith(t, Options{Registry: telemetry.NewRegistry()}, service.Options{Shards: 2, Blobs: store})
	c.addWorker("w1")
	j, err := c.engine.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 30*time.Second)
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	assertSamePhysics(t, res, localResult(t, cfg))

	if got := c.coord.metrics.storeSeeds.Value(); got < 1 {
		t.Fatalf("fleet_store_seeds_total = %v, want >= 1", got)
	}
	// The worker resumed at step 2, so the forwarded step history starts
	// there — the proof the seed was honoured, not discarded.
	steps := j.Steps()
	if len(steps) == 0 || steps[0].Step != 2 {
		t.Fatalf("forwarded steps %+v, want history starting at step 2", steps)
	}
	if _, err := store.Get("checkpoints/" + key); err == nil {
		t.Error("finished shard's checkpoint not removed from the store")
	}
}

// TestHandedInSnapshotSeedsDispatch: a snapshot submitted with a spec to a
// coordinator seeds the shard's dispatch, as it seeds a local run: the worker
// resumes at the snapshot's step boundary, so the forwarded step history
// starts there, and the physics is core.Run's.
func TestHandedInSnapshotSeedsDispatch(t *testing.T) {
	cfg := fastConfig(4343)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	sim, err := core.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	spec, err := service.SpecOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec.Snapshot = sim.Snapshot()

	c := newCluster(t, Options{})
	c.addWorker("w1")
	var jv service.JobView
	if err := c.postJSON("/v1/jobs", spec, &jv); err != nil {
		t.Fatal(err)
	}
	j, err := c.engine.Job(jv.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 30*time.Second)
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.Worker != "w1" {
		t.Fatalf("shard ran on %q, want w1", st.Worker)
	}
	if steps := j.Steps(); len(steps) == 0 || steps[0].Step != 2 {
		t.Fatalf("forwarded steps %+v, want history starting at step 2", steps)
	}
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePhysics(t, res, want)
	if got := c.coord.metrics.storeSeeds.Value(); got != 1 {
		t.Errorf("fleet_store_seeds_total = %v, want 1", got)
	}
}

// TestEngineFilesShardCheckpoints: a coordinator keeps no store, so its
// engine's is the only one a shard's checkpoints reach. A pulled checkpoint
// is filed there, a finished shard's is deleted once, and a failed write of
// one surfaces as a job warning and on
// neutral_checkpoint_write_failures_total.
func TestEngineFilesShardCheckpoints(t *testing.T) {
	store := &countingStore{Store: blob.NewMem()}
	c := newClusterWith(t, Options{}, service.Options{Shards: 2, Blobs: store})
	c.addWorker("w1")
	run := func(seed uint64) service.Status {
		t.Helper()
		j, err := c.engine.Submit(fastConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j, 30*time.Second)
		if _, err := j.Result(); err != nil {
			t.Fatal(err)
		}
		return j.Status()
	}

	if st := run(11); len(st.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", st.Warnings)
	}
	if got := store.puts.Load(); got < 1 {
		t.Error("no pulled checkpoint reached the engine's store")
	}
	if got := store.deletes.Load(); got != 1 {
		t.Errorf("the finished shard's checkpoint was deleted %d times, want 1", got)
	}

	store.failPuts.Store(true)
	st := run(12)
	warned := false
	for _, w := range st.Warnings {
		warned = warned || strings.HasPrefix(w, "checkpoint: write failed")
	}
	if !warned {
		t.Errorf("warnings %q, want a failed checkpoint write", st.Warnings)
	}
	var scrape bytes.Buffer
	if err := c.coord.opts.Registry.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	failures := ""
	for _, line := range strings.Split(scrape.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "neutral_checkpoint_write_failures_total "); ok {
			failures = v
		}
	}
	if failures == "" || failures == "0" {
		t.Errorf("neutral_checkpoint_write_failures_total = %q, want >= 1", failures)
	}
}
