package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// coreMetricFamilies is the vocabulary the /metrics endpoint must always
// serve — the same list the CI scrape gate requires.
var coreMetricFamilies = []string{
	"neutral_queue_depth",
	"neutral_jobs",
	"neutral_jobs_submitted_total",
	"neutral_jobs_completed_total",
	"neutral_jobs_running",
	"neutral_runs_total",
	"neutral_cache_hits_total",
	"neutral_cache_misses_total",
	"neutral_cache_entries",
	"neutral_job_duration_seconds",
	"neutral_particles_per_second",
	"neutral_solver_events_total",
	"neutral_http_requests_total",
	"neutral_checkpoint_seconds",
	"neutral_checkpoint_skipped_total",
	"neutral_scene_artefacts_total",
}

// TestAPIMetricsAfterJob scrapes /metrics after a completed job and asserts
// the exposition is well-formed and carries every core series with the
// values the run implies.
func TestAPIMetricsAfterJob(t *testing.T) {
	ts, e := newTestServer(t, Options{Shards: 2, QueueDepth: 8})
	spec := `{"problem":"csp","nx":64,"particles":200,"threads":2,"seed":42}`
	v := submitJob(t, ts, spec, false)
	j, err := e.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A repeat submission exercises the cache-hit series.
	submitJob(t, ts, spec, true)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content-type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.CheckExposition(body, coreMetricFamilies); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		`neutral_jobs{state="done"} 2`,
		`neutral_runs_total 1`,
		`neutral_cache_hits_total 1`,
		`neutral_jobs_submitted_total 2`,
		`neutral_solver_events_total{kind="census"}`,
		`neutral_solver_work_total{kind="xs_lookups"}`,
		`neutral_solver_work_total{kind="xs_search_steps"}`,
		`neutral_job_duration_seconds_count{scheme="over-particles"} 1`,
		`neutral_particles_per_second_count{scheme="over-particles"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestAPIStreamHeartbeat pins the SSE keepalive: a slow job with no
// progress movement still produces comment lines on the heartbeat interval.
func TestAPIStreamHeartbeat(t *testing.T) {
	e := New(Options{Shards: 1, QueueDepth: 4})
	block := make(chan struct{})
	e.runFn = func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		select {
		case <-block:
			return &core.Result{Config: cfg}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ts := httptest.NewServer(NewServerWith(e, ServerOptions{Heartbeat: 30 * time.Millisecond}))
	t.Cleanup(func() {
		ts.Close()
		e.Close()
	})

	j, err := e.Submit(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(250 * time.Millisecond)
		close(block)
	}()

	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID() + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	keepalives, done := 0, false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, ": keepalive") {
			keepalives++
		}
		if line == "event: done" {
			done = true
		}
	}
	if !done {
		t.Fatal("stream ended without done event")
	}
	if keepalives < 2 {
		t.Errorf("saw %d keepalive comments over a ~250ms idle stream, want >= 2", keepalives)
	}
}

// TestWriteErrorSanitizes5xx: internal error detail goes to the log, the
// client gets a generic message plus the request id; 4xx and the
// backpressure sentinels keep their messages.
func TestWriteErrorSanitizes5xx(t *testing.T) {
	e := New(Options{Shards: 1})
	t.Cleanup(e.Close)
	var logBuf strings.Builder
	s := NewServerWith(e, ServerOptions{
		Logger: slog.New(slog.NewTextHandler(&logBuf, nil)),
	})

	body := func(code int, err error) map[string]string {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/v1/test", nil)
		req = req.WithContext(context.WithValue(req.Context(), ctxKeyRequestID, "req-123"))
		s.writeError(rec, req, code, err)
		var m map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	secret := errorString("open /var/secret/topology.yaml: permission denied")
	m := body(http.StatusInternalServerError, secret)
	if m["error"] != "internal error" {
		t.Errorf("5xx body leaked detail: %q", m["error"])
	}
	if m["request_id"] != "req-123" {
		t.Errorf("5xx body missing request id: %v", m)
	}
	if !strings.Contains(logBuf.String(), "permission denied") {
		t.Error("error detail not logged")
	}
	if !strings.Contains(logBuf.String(), "req-123") {
		t.Error("request id not logged")
	}

	if m := body(http.StatusBadRequest, errorString("bad spec")); m["error"] != "bad spec" {
		t.Errorf("4xx message rewritten: %q", m["error"])
	}
	if m := body(http.StatusServiceUnavailable, ErrQueueFull); !strings.Contains(m["error"], "queue full") {
		t.Errorf("backpressure sentinel rewritten: %q", m["error"])
	}
}

type errorString string

func (e errorString) Error() string { return string(e) }

// TestAPIResultPhaseTimings: a completed run's result view attributes its
// wallclock to kernel phases.
func TestAPIResultPhaseTimings(t *testing.T) {
	ts, _ := newTestServer(t, Options{Shards: 1, QueueDepth: 4})
	v := submitJob(t, ts, `{"problem":"csp","nx":64,"particles":200,"threads":2,"seed":7,"scheme":"events"}`, false)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result?wait=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rv ResultView
	if err := json.NewDecoder(resp.Body).Decode(&rv); err != nil {
		t.Fatal(err)
	}
	if len(rv.PhaseTimings) == 0 {
		t.Fatal("result view has no phase_timings")
	}
	for _, phase := range []string{"event-kernel", "collision-kernel"} {
		if rv.PhaseTimings[phase] <= 0 {
			t.Errorf("phase %s = %v, want > 0 (got %v)", phase, rv.PhaseTimings[phase], rv.PhaseTimings)
		}
	}
}

// TestAPITrace: the trace endpoint serves valid Chrome trace-event JSON
// with one step span per timestep, and 404s for cache-hit jobs that never
// ran a solver.
func TestAPITrace(t *testing.T) {
	ts, e := newTestServer(t, Options{Shards: 1, QueueDepth: 4})
	spec := `{"problem":"scatter","nx":64,"particles":150,"seed":9,"steps":3}`
	v := submitJob(t, ts, spec, false)
	j, err := e.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	steps := 0
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" && strings.HasPrefix(ev.Name, "step ") {
			steps++
		}
	}
	if steps != 3 {
		t.Errorf("trace has %d step spans, want 3", steps)
	}

	// A cache-hit resubmission records no solver spans.
	v2, code := postJob(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("cached submit status %d", code)
	}
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + v2.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("cached job trace status %d, want 404", resp2.StatusCode)
	}
}

// TestAPIPprofGated: profile handlers exist only when opted in.
func TestAPIPprofGated(t *testing.T) {
	ts, _ := newTestServer(t, Options{Shards: 1})
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without opt-in: status %d, want 404", resp.StatusCode)
	}

	e := New(Options{Shards: 1})
	ts2 := httptest.NewServer(NewServerWith(e, ServerOptions{Pprof: true}))
	t.Cleanup(func() {
		ts2.Close()
		e.Close()
	})
	resp2, err := http.Get(ts2.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof with opt-in: status %d, want 200", resp2.StatusCode)
	}
}

// TestAPIRequestID: every response carries a correlation id, and an inbound
// X-Request-Id is honoured.
func TestAPIRequestID(t *testing.T) {
	ts, _ := newTestServer(t, Options{Shards: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("response missing X-Request-Id")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-chosen")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got != "caller-chosen" {
		t.Errorf("X-Request-Id = %q, want caller-chosen", got)
	}
}

// syncBuffer is a goroutine-safe log sink: the middleware writes the access
// line after the handler returns, so the client can observe the response
// before the line lands and the test must synchronise its read.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestAPIAccessLog: the middleware emits one structured line per request
// carrying method, path, status and the submit handler's job annotations.
// The job cannot finish (its solve blocks until teardown), so this is also
// where "a job still queued or running is announced 202" is pinned.
func TestAPIAccessLog(t *testing.T) {
	e := New(Options{Shards: 1})
	e.runFn = func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	var logBuf syncBuffer
	ts := httptest.NewServer(NewServerWith(e, ServerOptions{
		Logger: slog.New(slog.NewTextHandler(&logBuf, nil)),
	}))
	t.Cleanup(func() {
		ts.Close()
		e.Close()
	})
	v, code := postJob(t, ts, `{"problem":"stream","nx":64,"particles":100,"seed":3}`)
	if code != http.StatusAccepted || v.State.Terminal() {
		t.Fatalf("submit of a job that cannot finish: status %d, state %s; want 202 and in flight", code, v.State)
	}
	deadline := time.Now().Add(2 * time.Second)
	wants := []string{"method=POST", "path=/v1/jobs", "status=202", "job_id=" + v.ID, "fingerprint="}
	for {
		logged := logBuf.String()
		missing := ""
		for _, want := range wants {
			if !strings.Contains(logged, want) {
				missing = want
				break
			}
		}
		if missing == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("access log missing %q:\n%s", missing, logged)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
