package fleet

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service/blob"
	"repro/internal/telemetry"
)

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
	if a.client.Timeout <= 0 {
		t.Error("agent default client has no timeout")
	}
}

// TestDefaultRetryPoliciesJitter pins the thundering-herd satellite: the
// default policies draw real jitter, while injected policies keep the
// deterministic nil-Rand midpoint.
func TestDefaultRetryPoliciesJitter(t *testing.T) {
	if o := (Options{}).withDefaults(); o.Retry.Rand == nil {
		t.Error("coordinator default retry policy has no Rand (lockstep backoff)")
	}
	a, err := NewAgent(AgentOptions{Coordinator: "http://c", Self: "http://s", Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	if a.opts.Retry.Rand == nil {
		t.Error("agent default retry policy has no Rand (lockstep backoff)")
	}
	// An injected policy is taken verbatim — tests depend on nil Rand
	// backing off deterministically.
	if o := (Options{Retry: retryFast()}).withDefaults(); o.Retry.Rand != nil {
		t.Error("injected retry policy was mutated")
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

	// The "restarted" coordinator: fresh registry and lease table, same
	// store, shard re-submitted from scratch.
	c := newCluster(t, Options{Blobs: store, Registry: telemetry.NewRegistry()})
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
