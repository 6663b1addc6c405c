package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service/blob"
)

// newAuthServer is newTestServer with HTTP-layer options — the auth and
// body-cap tests need both knobs.
func newAuthServer(t *testing.T, opts Options, sopts ServerOptions) (*httptest.Server, *Engine) {
	t.Helper()
	e := New(opts)
	ts := httptest.NewServer(NewServerWith(e, sopts))
	t.Cleanup(func() {
		ts.Close()
		e.Close()
	})
	return ts, e
}

func mustAuth(t *testing.T, tenants ...Tenant) *Auth {
	t.Helper()
	a, err := NewAuth(tenants)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// doReq sends one request with an optional bearer key and returns the
// response (body closed by the caller's defer-free reading of headers only).
func doReq(t *testing.T, method, url, key, body string) *http.Response {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

const tinySpec = `{"problem":"csp","nx":32,"particles":50,"steps":1,"seed":7}`

// TestAuthFailureModes pins the authentication state machine: no token and
// unknown tokens are 401 (with a WWW-Authenticate challenge), a revoked key
// is 403, a good key passes, and the operator endpoints stay open.
func TestAuthFailureModes(t *testing.T) {
	auth := mustAuth(t,
		Tenant{Name: "alice", Key: "alice-key"},
		Tenant{Name: "mallory", Key: "mallory-key", Revoked: true},
	)
	ts, _ := newAuthServer(t, Options{Shards: 1}, ServerOptions{Auth: auth})

	if resp := doReq(t, "GET", ts.URL+"/v1/jobs", "", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no key: %d, want 401", resp.StatusCode)
	} else if ch := resp.Header.Get("WWW-Authenticate"); !strings.Contains(ch, "Bearer") {
		t.Fatalf("401 challenge %q, want Bearer", ch)
	}
	if resp := doReq(t, "GET", ts.URL+"/v1/jobs", "nope", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key: %d, want 401", resp.StatusCode)
	}
	if resp := doReq(t, "GET", ts.URL+"/v1/jobs", "mallory-key", ""); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("revoked key: %d, want 403", resp.StatusCode)
	}
	if resp := doReq(t, "GET", ts.URL+"/v1/jobs", "alice-key", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("good key: %d, want 200", resp.StatusCode)
	}

	// Liveness and metrics are operator plumbing, reachable without a key.
	for _, path := range []string{"/healthz", "/metrics"} {
		if resp := doReq(t, "GET", ts.URL+path, "", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s without key: %d, want 200", path, resp.StatusCode)
		}
	}

	// Runtime revocation takes effect on the next request.
	if !auth.Revoke("alice") {
		t.Fatal("Revoke(alice) reported no such tenant")
	}
	if resp := doReq(t, "GET", ts.URL+"/v1/jobs", "alice-key", ""); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("post-revocation: %d, want 403", resp.StatusCode)
	}
}

// TestRevokeDuringRequests races a runtime revocation against requests that
// present the key: each is answered 200 or 403, and every request after
// Revoke returns is 403. Under -race it pins that the revoked flag is read
// under the lock Revoke writes it under.
func TestRevokeDuringRequests(t *testing.T) {
	auth := mustAuth(t, Tenant{Name: "alice", Key: "alice-key"})
	e := New(Options{Shards: 1})
	defer e.Close()
	srv := NewServerWith(e, ServerOptions{Auth: auth})
	get := func() int {
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs", nil)
		req.Header.Set("Authorization", "Bearer alice-key")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code
	}
	var wg sync.WaitGroup
	answered := make(chan struct{}, 4) // one per goroutine, sent after its first answer
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				if code := get(); code != http.StatusOK && code != http.StatusForbidden {
					t.Errorf("during revocation: %d, want 200 or 403", code)
				}
				if i == 0 {
					answered <- struct{}{}
				}
			}
		}()
	}
	<-answered // revoke while the others are mid-flight
	if !auth.Revoke("alice") {
		t.Fatal("Revoke(alice) reported no such tenant")
	}
	if code := get(); code != http.StatusForbidden {
		t.Errorf("after revocation: %d, want 403", code)
	}
	wg.Wait()
}

// TestRateLimit429RetryAfter saturates a 1-token bucket: the second rapid
// submission is shed 429 with a Retry-After the client can actually obey.
func TestRateLimit429RetryAfter(t *testing.T) {
	auth := mustAuth(t, Tenant{Name: "slow", Key: "slow-key", Rate: 0.5, Burst: 1})
	ts, e := newAuthServer(t, Options{Shards: 1}, ServerOptions{Auth: auth})
	e.runFn = func(ctx context.Context, cfg core.Config, p core.ProgressFunc) (*core.Result, error) {
		return &core.Result{Config: cfg}, nil
	}

	if resp := doReq(t, "POST", ts.URL+"/v1/jobs", "slow-key", tinySpec); resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp := doReq(t, "POST", ts.URL+"/v1/jobs", "slow-key", tinySpec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want integer seconds >= 1", ra)
	}
	// Refill rate is 0.5 tokens/s, so a full token is 2s away at most.
	if secs > 3 {
		t.Fatalf("Retry-After %d s, want <= 3 (bucket refills at 0.5/s)", secs)
	}
}

// TestBatchSpendsPerItem pins that batching is not a rate-limit bypass: a
// 3-spec batch against a 2-token bucket is shed wholesale with 429.
func TestBatchSpendsPerItem(t *testing.T) {
	auth := mustAuth(t, Tenant{Name: "b", Key: "b-key", Rate: 0.1, Burst: 2})
	ts, _ := newAuthServer(t, Options{Shards: 1}, ServerOptions{Auth: auth})
	batch := `{"specs":[` + tinySpec + `,` + tinySpec + `,` + tinySpec + `]}`
	resp := doReq(t, "POST", ts.URL+"/v1/batch", "b-key", batch)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("3-spec batch on 2-token budget: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("batch 429 carries no Retry-After")
	}
}

// TestQueueFull503RetryAfter pins the backpressure satellite: a 503 from a
// saturated queue always tells the client when to come back.
func TestQueueFull503RetryAfter(t *testing.T) {
	ts, e := newAuthServer(t, Options{Shards: 1, QueueDepth: 1}, ServerOptions{})
	block := make(chan struct{})
	defer close(block)
	e.runFn = func(ctx context.Context, cfg core.Config, p core.ProgressFunc) (*core.Result, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &core.Result{Config: cfg}, nil
	}

	// Distinct seeds, one shard: first occupies the worker, second queues,
	// the rest overflow with 503.
	var last *http.Response
	for seed := 0; seed < 4; seed++ {
		spec := `{"problem":"csp","nx":32,"particles":50,"steps":1,"seed":` + strconv.Itoa(100+seed) + `}`
		last = doReq(t, "POST", ts.URL+"/v1/jobs", "", spec)
		if last.StatusCode == http.StatusServiceUnavailable {
			break
		}
	}
	if last.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue never overflowed; last status %d", last.StatusCode)
	}
	if ra := last.Header.Get("Retry-After"); ra == "" {
		t.Fatal("queue-full 503 carries no Retry-After")
	}
}

// TestBodyLimit413 pins the request-size cap: a body over MaxBodyBytes is
// refused 413, a small one still decodes.
func TestBodyLimit413(t *testing.T) {
	ts, _ := newAuthServer(t, Options{Shards: 1}, ServerOptions{MaxBodyBytes: 1024})
	big := `{"problem":"csp","particles":50,"scene_pad":"` + strings.Repeat("x", 2048) + `"}`
	if resp := doReq(t, "POST", ts.URL+"/v1/jobs", "", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", resp.StatusCode)
	}
	if resp := doReq(t, "POST", ts.URL+"/v1/batch", "", `{"specs":[`+strings.Repeat(tinySpec+",", 20)+tinySpec+`]}`); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: %d, want 413", resp.StatusCode)
	}
	submitJob(t, ts, tinySpec, false) // a small body under the cap
}

// TestQueueTenantRoundRobin pins the fair-share pop order: FIFO within a
// tenant, interleaved across tenants.
func TestQueueTenantRoundRobin(t *testing.T) {
	q := NewQueue(8)
	push := func(id, tenant string) {
		t.Helper()
		if err := q.Push(&Job{id: id, tenant: tenant}); err != nil {
			t.Fatal(err)
		}
	}
	push("a1", "a")
	push("a2", "a")
	push("a3", "a")
	push("b1", "b")
	push("c1", "c")
	want := []string{"a1", "b1", "c1", "a2", "a3"}
	for i, w := range want {
		j, ok := q.Pop()
		if !ok || j.id != w {
			t.Fatalf("pop %d = %v, want %s", i, j, w)
		}
	}
}

// TestFairShareNoStarvation floods one shard with a greedy tenant's jobs,
// then submits a single job from a light tenant: round-robin lanes must pick
// it up after at most a couple of service times, not behind the whole flood.
func TestFairShareNoStarvation(t *testing.T) {
	const svcTime = 10 * time.Millisecond
	const flood = 20
	e := New(Options{Shards: 1, QueueDepth: flood + 4})
	defer e.Close()
	gate := make(chan struct{})
	var once sync.Once
	e.runFn = func(ctx context.Context, cfg core.Config, p core.ProgressFunc) (*core.Result, error) {
		once.Do(func() { <-gate }) // hold the worker until the flood is queued
		time.Sleep(svcTime)
		return &core.Result{Config: cfg}, nil
	}

	greedy := make([]*Job, 0, flood)
	for i := 0; i < flood; i++ {
		cfg := smallConfig()
		cfg.Seed = uint64(2000 + i)
		j, err := e.SubmitWith(cfg, SubmitOptions{Tenant: "greedy"})
		if err != nil {
			t.Fatal(err)
		}
		greedy = append(greedy, j)
	}
	cfg := smallConfig()
	cfg.Seed = 9999
	start := time.Now()
	light, err := e.SubmitWith(cfg, SubmitOptions{Tenant: "light"})
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	select {
	case <-light.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("light tenant's job never finished")
	}
	latency := time.Since(start)

	// FIFO would put the light job behind ~20 greedy jobs (>= 200ms of
	// service). Fair-share bounds it to roughly two service times (the one
	// in flight plus one greedy turn); 6x leaves slack for scheduler noise.
	if bound := 6 * svcTime; latency > bound {
		t.Fatalf("light tenant waited %v behind a %d-job flood, want < %v", latency, flood, bound)
	}
	done := 0
	for _, j := range greedy {
		if j.Status().State.Terminal() {
			done++
		}
	}
	if done == flood {
		t.Fatal("entire flood finished before the light job was observed; fairness untested")
	}
	for _, j := range greedy {
		<-j.Done()
	}
}

// TestBlobResultTierAcrossRestart runs a job on one engine, then opens a
// second engine over the same store: the same submission must be served from
// the persisted result without a solve — the stateless-worker contract.
func TestBlobResultTierAcrossRestart(t *testing.T) {
	store := blob.NewMem()
	cfg := smallConfig()
	cfg.Seed = 77
	cfg.KeepCells = true

	e1 := New(Options{Shards: 1, Blobs: store})
	j1, err := e1.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done()
	want, err := j1.Result()
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()
	if keys, _ := store.List("results/"); len(keys) != 1 {
		t.Fatalf("persisted results: %v, want exactly one", keys)
	}

	// The "restarted" process: fresh engine, same store, cold memory cache.
	e2 := New(Options{Shards: 1, Blobs: store})
	defer e2.Close()
	j2, err := e2.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j2.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("stored-result submission did not finish")
	}
	st := j2.Status()
	if st.State != StateDone || !st.Cached {
		t.Fatalf("restarted engine state %v cached=%v, want done from store", st.State, st.Cached)
	}
	if e2.Stats().Runs != 0 {
		t.Fatalf("restarted engine solved %d times, want 0 (stored result)", e2.Stats().Runs)
	}
	got, err := j2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got.TallyTotal != want.TallyTotal {
		t.Fatalf("stored tally %x, want %x", got.TallyTotal, want.TallyTotal)
	}
	if got.Counter != want.Counter {
		t.Fatalf("stored counters differ:\n got %+v\nwant %+v", got.Counter, want.Counter)
	}
}

// TestStoredResultSkipsKeepBank pins the persistence eligibility rule: the
// wire view cannot carry a particle bank, so KeepBank runs are neither
// persisted nor served from the store.
func TestStoredResultSkipsKeepBank(t *testing.T) {
	store := blob.NewMem()
	e := New(Options{Shards: 1, Blobs: store})
	defer e.Close()
	cfg := smallConfig()
	cfg.Seed = 78
	cfg.KeepBank = true
	j, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if keys, _ := store.List("results/"); len(keys) != 0 {
		t.Fatalf("KeepBank run persisted %v, want nothing", keys)
	}
}

// TestAuthValidation pins the key-set validation rules.
func TestAuthValidation(t *testing.T) {
	bad := [][]Tenant{
		{},
		{{Name: "", Key: "k"}},
		{{Name: "a", Key: ""}},
		{{Name: AnonymousTenant, Key: "k"}},
		{{Name: "a", Key: "k", Rate: -1}},
		{{Name: "a", Key: "k1"}, {Name: "a", Key: "k2"}},
		{{Name: "a", Key: "k"}, {Name: "b", Key: "k"}},
	}
	for i, ts := range bad {
		if _, err := NewAuth(ts); err == nil {
			t.Errorf("case %d: NewAuth accepted invalid set %+v", i, ts)
		}
	}
	if _, err := NewAuth([]Tenant{{Name: "a", Key: "k", Rate: 2, Burst: 5}}); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
}

// TestParseKeys covers both accepted file shapes and the flag format.
func TestParseKeys(t *testing.T) {
	wrapped, err := ParseKeys([]byte(`{"tenants":[{"name":"a","key":"k","rate":2}]}`))
	if err != nil || len(wrapped) != 1 || wrapped[0].Rate != 2 {
		t.Fatalf("wrapped: %+v, %v", wrapped, err)
	}
	bare, err := ParseKeys([]byte(`[{"name":"a","key":"k"}]`))
	if err != nil || len(bare) != 1 {
		t.Fatalf("bare: %+v, %v", bare, err)
	}
	tn, err := ParseKeyFlag("team:secret:1.5:4")
	if err != nil || tn.Name != "team" || tn.Key != "secret" || tn.Rate != 1.5 || tn.Burst != 4 {
		t.Fatalf("flag: %+v, %v", tn, err)
	}
	for _, s := range []string{"", "noseparator", ":key", "name:", "a:b:notanumber", "a:b:1:2:3"} {
		if _, err := ParseKeyFlag(s); err == nil {
			t.Errorf("ParseKeyFlag(%q) accepted", s)
		}
	}
	if _, err := LoadKeys("/nonexistent/keys.json"); err == nil {
		t.Error("LoadKeys on a missing file returned nil error")
	}
}
