package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/scene"
)

func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Engine) {
	t.Helper()
	e := New(opts)
	ts := httptest.NewServer(NewServer(e))
	t.Cleanup(func() {
		ts.Close()
		e.Close()
	})
	return ts, e
}

func postJob(t *testing.T, ts *httptest.Server, spec string) (JobView, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

// submitJob posts a spec whose status code is not the test's subject and
// returns the admitted job's view. A submit answers 202 while the job is
// queued or running and 200 once it is terminal — which a tiny job can be
// before the response is written — so the code says nothing about where the
// answer came from. What is asserted is that: wantCached demands a terminal
// job served from the store (always 200), otherwise the job must be one the
// engine computes, whichever of the two codes announced it.
func submitJob(t *testing.T, ts *httptest.Server, spec string, wantCached bool) JobView {
	t.Helper()
	v, code := postJob(t, ts, spec)
	switch {
	case v.Cached != wantCached:
		t.Fatalf("submit of %s: cached = %t, want %t (status %d, view %+v)", spec, v.Cached, wantCached, code, v)
	case wantCached && (code != http.StatusOK || v.State != StateDone):
		t.Fatalf("cached submit of %s: status %d, state %s; want 200 and done", spec, code, v.State)
	case code != http.StatusOK && code != http.StatusAccepted:
		t.Fatalf("submit of %s: status %d", spec, code)
	}
	return v
}

func TestAPISubmitAndResult(t *testing.T) {
	ts, _ := newTestServer(t, Options{Shards: 2, QueueDepth: 8})
	spec := `{"problem":"csp","nx":64,"particles":200,"threads":2,"seed":42}`
	v := submitJob(t, ts, spec, false)
	if v.ID == "" || v.State == "" {
		t.Fatalf("bad job view %+v", v)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result?wait=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", resp.StatusCode)
	}
	var rv ResultView
	if err := json.NewDecoder(resp.Body).Decode(&rv); err != nil {
		t.Fatal(err)
	}
	if rv.Events == 0 {
		t.Fatal("result reports no events")
	}

	// The same spec resolves to the same config: a repeat submission is a
	// cache hit answered 200 with a terminal view.
	submitJob(t, ts, spec, true)
}

// TestAPIResultMatchesDirectRun asserts the service pipeline (JSON spec →
// engine → result view) reproduces a direct solver call exactly.
func TestAPIResultMatchesDirectRun(t *testing.T) {
	cfg := core.Default(mesh.Scatter)
	cfg.NX, cfg.NY = 64, 64
	cfg.Particles = 300
	cfg.Seed = 4242
	direct, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ts, _ := newTestServer(t, Options{Shards: 1, QueueDepth: 4})
	spec := `{"problem":"scatter","nx":64,"particles":300,"seed":4242}`
	v := submitJob(t, ts, spec, false)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result?wait=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rv ResultView
	if err := json.NewDecoder(resp.Body).Decode(&rv); err != nil {
		t.Fatal(err)
	}
	if rv.TallyTotal != direct.TallyTotal {
		t.Errorf("tally %v != direct %v", rv.TallyTotal, direct.TallyTotal)
	}
	if rv.Events != direct.Counter.TotalEvents() {
		t.Errorf("events %d != direct %d", rv.Events, direct.Counter.TotalEvents())
	}
}

func TestAPIValidation(t *testing.T) {
	ts, _ := newTestServer(t, Options{Shards: 1, QueueDepth: 4})
	cases := []string{
		`{"problem":"bogus"}`,
		`{"problem":"csp","scheme":"bogus"}`,
		`{"problem":"csp","tally":"bogus"}`,
		`{"problem":"csp","layout":"bogus"}`,
		`{"problem":"csp","schedule":"bogus"}`,
		`{"problem":"csp","keep_bank":true}`,
		`{"problem":"csp","particles":-4}`,
		// A cell coordinate is an int32: a wider mesh is refused at the
		// door, not by a panic in the worker that builds it.
		`{"problem":"csp","nx":4294967296,"particles":10}`,
		`{"problem":"csp","unknown_field":1}`,
		`not json`,
		// A source box is checked against the scene's domain like any
		// scene source: outside the 2.5 m domain, inverted, or unbounded.
		`{"problem":"stream","source":{"x0":5,"x1":6,"y0":1,"y1":1.5}}`,
		`{"problem":"stream","source":{"x0":1,"x1":0.5,"y0":1,"y1":1.5}}`,
		`{"problem":"stream","source":{"x0":-1e300,"x1":1,"y0":1,"y1":1.5}}`,
	}
	for _, spec := range cases {
		if _, code := postJob(t, ts, spec); code != http.StatusBadRequest {
			t.Errorf("spec %q: status %d, want 400", spec, code)
		}
	}
}

func TestAPIUnknownJob(t *testing.T) {
	ts, _ := newTestServer(t, Options{Shards: 1, QueueDepth: 4})
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestAPICancel(t *testing.T) {
	ts, _ := newTestServer(t, Options{Shards: 1, QueueDepth: 4})
	// Big enough that a single step takes ~a second: the job cannot
	// finish before the cancel lands.
	spec := `{"problem":"csp","nx":512,"particles":200000,"steps":10,"threads":2,"seed":1}`
	v := submitJob(t, ts, spec, false)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		var jv JobView
		json.NewDecoder(resp.Body).Decode(&jv)
		resp.Body.Close()
		if jv.State.Terminal() {
			if jv.State != StateCanceled {
				t.Fatalf("terminal state %s, want canceled", jv.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached a terminal state after cancel")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The result endpoint reports the cancellation as a conflict.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("result of canceled job: status %d, want 409", resp2.StatusCode)
	}
}

func TestAPIStream(t *testing.T) {
	ts, _ := newTestServer(t, Options{Shards: 1, QueueDepth: 4})
	spec := `{"problem":"csp","nx":64,"particles":400,"steps":4,"threads":2,"seed":7}`
	v := submitJob(t, ts, spec, false)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var sawDone bool
	var lastData string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
		}
		if line == "event: done" {
			sawDone = true
		}
	}
	if !sawDone {
		t.Fatal("stream ended without a done event")
	}
	var jv JobView
	if err := json.Unmarshal([]byte(lastData), &jv); err != nil {
		t.Fatalf("final event payload: %v", err)
	}
	if jv.State != StateDone || jv.Progress != 1 {
		t.Fatalf("final event %+v", jv)
	}
}

// TestAPIRetiredTallyModes: the tally names this code no longer has are
// refused at the door, and the 400 says what to ask for instead.
func TestAPIRetiredTallyModes(t *testing.T) {
	ts, _ := newTestServer(t, Options{Shards: 1, QueueDepth: 4})
	for _, mode := range []string{"serial", "buffered"} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"problem":"csp","tally":"`+mode+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `use \"atomic\"`) {
			t.Errorf("tally %q: status %d, body %s; want 400 naming atomic", mode, resp.StatusCode, body)
		}
	}
}

func TestAPIListAndStats(t *testing.T) {
	ts, _ := newTestServer(t, Options{Shards: 2, QueueDepth: 8})
	for i := 0; i < 3; i++ {
		spec := fmt.Sprintf(`{"problem":"csp","nx":64,"particles":100,"seed":%d}`, i)
		submitJob(t, ts, spec, false)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var views []JobView
	json.NewDecoder(resp.Body).Decode(&views)
	resp.Body.Close()
	if len(views) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(views))
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Submitted != 3 || st.Shards != 2 {
		t.Fatalf("stats %+v", st)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(body.String(), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
}

func TestSpecConfigDefaults(t *testing.T) {
	cfg, err := Spec{Problem: "csp"}.Config()
	if err != nil {
		t.Fatal(err)
	}
	def := core.Default(mesh.CSP)
	if cfg.NX != def.NX || cfg.Particles != def.Particles || cfg.Seed != def.Seed {
		t.Fatalf("spec defaults diverge from core defaults: %+v", cfg)
	}

	seed := uint64(0)
	cfg, err = Spec{Problem: "csp", Seed: &seed}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 0 {
		t.Fatal("explicit zero seed ignored")
	}

	paper, err := Spec{Problem: "scatter", Paper: true}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if paper.NX != 4000 || paper.Particles != 10_000_000 {
		t.Fatalf("paper spec = %+v", paper)
	}

	// A source box replaces the preset's sources in a scene of the job's
	// own: one unit-weight box, the preset itself untouched.
	src, err := Spec{Problem: "stream", Source: &SourceSpec{X0: 1, X1: 2, Y0: 0.5, Y1: 1.5}}.Config()
	if err != nil {
		t.Fatal(err)
	}
	stream, err := scene.Preset(mesh.Stream)
	if err != nil {
		t.Fatal(err)
	}
	want := scene.Source{X0: 1, X1: 2, Y0: 0.5, Y1: 1.5, Share: 1,
		Weight: particle.SourceWeight, Energy: particle.SourceEnergy}
	if src.Scene == nil || src.Scene == stream || len(src.Scene.Sources) != 1 || src.Scene.Sources[0] != want {
		t.Fatalf("source spec not applied: scene %+v", src.Scene)
	}
	if stream.Sources[0] == want || src.Scene.Hash() == stream.Hash() {
		t.Fatal("source spec changed the preset or kept its identity")
	}
}

// TestAPIStreamStepEvents pins the per-step SSE contract: a multi-step job
// streams one "step" event per completed timestep (replayed for late
// subscribers), each carrying the cumulative tally and the population
// partition, before the closing "done" event.
func TestAPIStreamStepEvents(t *testing.T) {
	ts, _ := newTestServer(t, Options{Shards: 1, QueueDepth: 4})
	spec := `{"problem":"csp","nx":64,"particles":400,"steps":3,"threads":2,"seed":11}`
	v := submitJob(t, ts, spec, false)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	var steps []StepView
	var inStep, sawDone bool
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: step":
			inStep = true
		case line == "event: done":
			sawDone = true
		case strings.HasPrefix(line, "data: ") && inStep:
			var sv StepView
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &sv); err != nil {
				t.Fatalf("step payload: %v", err)
			}
			steps = append(steps, sv)
			inStep = false
		}
	}
	if !sawDone {
		t.Fatal("stream ended without a done event")
	}
	if len(steps) != 3 {
		t.Fatalf("received %d step events, want 3: %+v", len(steps), steps)
	}
	for i, sv := range steps {
		if sv.Step != i || sv.Steps != 3 {
			t.Errorf("step event %d: %+v", i, sv)
		}
		if sv.Alive != 0 || sv.Census+sv.Dead != 400 {
			t.Errorf("step %d population %d/%d/%d does not partition the bank", i, sv.Alive, sv.Census, sv.Dead)
		}
	}
	// Deposition accumulates monotonically across steps.
	for i := 1; i < len(steps); i++ {
		if steps[i].TallyTotal < steps[i-1].TallyTotal {
			t.Errorf("tally decreased: step %d %g -> step %d %g",
				i-1, steps[i-1].TallyTotal, i, steps[i].TallyTotal)
		}
	}

	// The steps endpoint serves the same history to non-streaming clients.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/steps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var polled []StepView
	if err := json.NewDecoder(resp2.Body).Decode(&polled); err != nil {
		t.Fatal(err)
	}
	if len(polled) != len(steps) {
		t.Fatalf("steps endpoint returned %d entries, want %d", len(polled), len(steps))
	}
}

// TestAPIBatch submits a mixed batch and checks per-item statuses: valid
// specs are admitted as jobs, the invalid one carries its own error, the
// accepted jobs run to completion, and an item's snapshot and
// retain_snapshot do what they do on POST /v1/jobs.
func TestAPIBatch(t *testing.T) {
	ts, e := newTestServer(t, Options{Shards: 2, QueueDepth: 8})
	body := `{"specs":[
		{"problem":"csp","nx":64,"particles":200,"steps":2,"seed":1},
		{"problem":"no-such-problem"},
		{"problem":"scatter","nx":64,"particles":200,"seed":2}
	]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != 3 {
		t.Fatalf("%d items, want 3", len(br.Items))
	}
	if !br.Items[0].Accepted || br.Items[0].Job == nil ||
		!br.Items[2].Accepted || br.Items[2].Job == nil {
		t.Fatalf("valid specs not admitted: %+v", br.Items)
	}
	if br.Items[1].Accepted || br.Items[1].Error == "" || br.Items[1].Job != nil {
		t.Fatalf("invalid spec not rejected per-item: %+v", br.Items[1])
	}

	for _, idx := range []int{0, 2} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + br.Items[idx].Job.ID + "/result?wait=true")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch item %d result status %d", idx, resp.StatusCode)
		}
		var rv ResultView
		if err := json.NewDecoder(resp.Body).Decode(&rv); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if rv.Events == 0 {
			t.Errorf("batch item %d produced no events", idx)
		}
	}

	// Item i of the response is spec i, whatever mix of good and bad specs
	// surrounds it: the good ones carry ascending job IDs (and, once run,
	// their own step counts), the bad ones only their own error.
	mixed := `{"specs":[
		{"problem":"csp","nx":64,"particles":100,"steps":1,"seed":11},
		{"problem":"no-such-problem"},
		{"problem":"csp","nx":64,"particles":100,"steps":2,"seed":12},
		{"problem":"csp","nx":-3},
		{"problem":"csp","nx":64,"particles":100,"steps":3,"seed":13}
	]}`
	mresp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(mixed))
	if err != nil {
		t.Fatal(err)
	}
	var mr BatchResponse
	err = json.NewDecoder(mresp.Body).Decode(&mr)
	mresp.Body.Close()
	if err != nil || len(mr.Items) != 5 {
		t.Fatalf("mixed batch: %d items, decode error %v", len(mr.Items), err)
	}
	for i, wantErr := range map[int]string{1: "no-such-problem", 3: "negative nx"} {
		if it := mr.Items[i]; it.Accepted || it.Job != nil || !strings.Contains(it.Error, wantErr) {
			t.Errorf("mixed batch item %d = %+v, want only an error naming %q", i, it, wantErr)
		}
	}
	lastID := br.Items[2].Job.ID
	for i, steps := range map[int]int{0: 1, 2: 2, 4: 3} {
		it := mr.Items[i]
		if !it.Accepted || it.Job == nil || it.Error != "" {
			t.Fatalf("mixed batch item %d = %+v, want an admitted job", i, it)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + it.Job.ID + "/result?wait=true")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		var jv JobView
		getJSON(t, ts, "/v1/jobs/"+it.Job.ID, &jv)
		if jv.State != StateDone || jv.Steps != steps {
			t.Errorf("mixed batch item %d is job %s with %d steps (%s), want spec %d's %d",
				i, it.Job.ID, jv.Steps, jv.State, i, steps)
		}
	}
	for _, i := range []int{0, 2, 4} {
		if id := mr.Items[i].Job.ID; id <= lastID {
			t.Errorf("mixed batch item %d has job ID %s after %s", i, id, lastID)
		} else {
			lastID = id
		}
	}

	// An item is admitted as POST /v1/jobs admits its spec: a
	// retain_snapshot item serves its checkpoint once done, and a snapshot
	// item resumes from the boundary the snapshot carries.
	seed := uint64(22)
	seeded := Spec{Problem: "csp", NX: 64, Particles: 100, Steps: 3, Seed: &seed}
	cfg, err := seeded.Config()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := core.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	seeded.Snapshot = sim.Snapshot()
	seededJSON, _ := json.Marshal(seeded)
	rresp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(fmt.Sprintf(
		`{"specs":[{"problem":"csp","nx":64,"particles":100,"steps":2,"seed":21,"retain_snapshot":true},%s]}`, seededJSON)))
	if err != nil {
		t.Fatal(err)
	}
	var rr BatchResponse
	err = json.NewDecoder(rresp.Body).Decode(&rr)
	rresp.Body.Close()
	if err != nil || len(rr.Items) != 2 || !rr.Items[0].Accepted || !rr.Items[1].Accepted {
		t.Fatalf("snapshot batch: %+v, decode error %v", rr.Items, err)
	}
	for _, it := range rr.Items {
		j, err := e.Job(it.Job.ID)
		if err != nil {
			t.Fatal(err)
		}
		j.Wait(context.Background())
	}
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + rr.Items[0].Job.ID + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Errorf("retain_snapshot batch item: /snapshot status %d, want 200", sresp.StatusCode)
	}
	var jv JobView
	getJSON(t, ts, "/v1/jobs/"+rr.Items[1].Job.ID, &jv)
	if jv.State != StateDone || jv.ResumedFrom == nil || *jv.ResumedFrom != 1 {
		t.Errorf("snapshot batch item: state %s, resumed from %v; want done, resumed from 1", jv.State, jv.ResumedFrom)
	}

	// Malformed batches are rejected wholesale.
	for _, bad := range []string{`{"specs":[]}`, `{`, `{"nope":1}`} {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}
