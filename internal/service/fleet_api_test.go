package service

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/scene"
)

// waitState polls a job view until it reaches the wanted state.
func waitState(t *testing.T, ts *httptest.Server, jobID string, want State) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var jv JobView
		getJSON(t, ts, "/v1/jobs/"+jobID, &jv)
		if jv.State == want {
			return
		}
		if jv.State.Terminal() {
			t.Fatalf("job %s reached %s, want %s (error %q)", jobID, jv.State, want, jv.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", jobID, jv.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// getJSON fetches one JSON document from the test server.
func getJSON(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id, event string
}

// readStream consumes an SSE response to EOF and returns the events seen.
func readStream(t *testing.T, ts *httptest.Server, jobID, lastEventID string) []sseEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+jobID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		}
	}
	return events
}

func countEvents(events []sseEvent, name string) int {
	n := 0
	for _, ev := range events {
		if ev.event == name {
			n++
		}
	}
	return n
}

// TestAPIStreamLastEventIDResume pins SSE reconnect semantics: a client
// reconnecting with the id of the last event it saw gets only the events
// after it — no replayed duplicates — while a client with no id (or an
// unparseable one) gets the full history.
func TestAPIStreamLastEventIDResume(t *testing.T) {
	ts, _ := newTestServer(t, Options{Shards: 1, QueueDepth: 4})
	spec := `{"problem":"csp","nx":64,"particles":400,"steps":4,"threads":2,"seed":11}`
	v := submitJob(t, ts, spec, false)

	// First subscriber: full history. Step events must carry cumulative
	// "s<steps>r<replicas>" ids.
	full := readStream(t, ts, v.ID, "")
	if got := countEvents(full, "step"); got != 4 {
		t.Fatalf("full stream: %d step events, want 4", got)
	}
	if got := countEvents(full, "done"); got != 1 {
		t.Fatalf("full stream: %d done events, want 1", got)
	}
	var stepIDs []string
	for _, ev := range full {
		if ev.event == "step" {
			if ev.id == "" {
				t.Fatal("step event without an id")
			}
			stepIDs = append(stepIDs, ev.id)
		}
	}
	if stepIDs[0] != "s1r0" || stepIDs[3] != "s4r0" {
		t.Errorf("step ids = %v, want s1r0..s4r0", stepIDs)
	}

	// Reconnect mid-history: after "s2r0" only steps 3 and 4 replay.
	mid := readStream(t, ts, v.ID, "s2r0")
	if got := countEvents(mid, "step"); got != 2 {
		t.Errorf("resume after s2r0: %d step events, want 2", got)
	}
	for _, ev := range mid {
		if ev.event == "step" && (ev.id == "s1r0" || ev.id == "s2r0") {
			t.Errorf("resume replayed already-seen event %s", ev.id)
		}
	}

	// Reconnect after the final step: zero step replays, done still sent.
	tail := readStream(t, ts, v.ID, "s4r0")
	if got := countEvents(tail, "step"); got != 0 {
		t.Errorf("resume after s4r0: %d step events, want 0", got)
	}
	if got := countEvents(tail, "done"); got != 1 {
		t.Errorf("resume after s4r0: %d done events, want 1", got)
	}

	// An unparseable id falls back to the full, safe replay.
	junk := readStream(t, ts, v.ID, "not-an-id")
	if got := countEvents(junk, "step"); got != 4 {
		t.Errorf("junk Last-Event-ID: %d step events, want full replay of 4", got)
	}
}

// TestAPISnapshotEndpoint pins the coordinator's checkpoint-pull surface:
// retain_snapshot jobs serve their latest checkpoint — whichever boundary the
// cost cadence last picked — with the step it restores to in a header, other
// jobs 404.
func TestAPISnapshotEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Options{Shards: 1, QueueDepth: 4})
	v := submitJob(t, ts, `{"problem":"csp","nx":32,"particles":200,"steps":3,"retain_snapshot":true,"seed":5}`, false)
	waitState(t, ts, v.ID, StateDone)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d, want 200", resp.StatusCode)
	}
	step, err := strconv.Atoi(resp.Header.Get("X-Neutral-Step"))
	if err != nil || step < 1 || step > 3 {
		t.Errorf("X-Neutral-Step = %q, want a boundary in [1, 3]", resp.Header.Get("X-Neutral-Step"))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("Content-Type = %q", ct)
	}

	// The snapshot restores into a simulation at the recorded boundary.
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Default(mesh.CSP)
	cfg.NX, cfg.NY = 32, 32
	cfg.Particles = 200
	cfg.Steps = 3
	cfg.Seed = 5
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	sim, err := core.RestoreSimulation(cfg, blob)
	if err != nil {
		t.Fatalf("pulled snapshot does not restore: %v", err)
	}
	if sim.StepIndex() != step {
		t.Errorf("restored StepIndex = %d, X-Neutral-Step said %d", sim.StepIndex(), step)
	}

	// A job that does not retain snapshots has nothing to serve.
	v2, _ := postJob(t, ts, `{"problem":"csp","nx":32,"particles":200,"steps":3,"seed":6}`)
	waitState(t, ts, v2.ID, StateDone)
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + v2.ID + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("snapshot of non-retaining job: status %d, want 404", resp2.StatusCode)
	}
}

// TestSpecOfRoundTrip pins the fleet's transport encoding: SpecOf(cfg)
// resolved back through Spec.Config must reproduce the exact fingerprint,
// for a config with the optional physics (a weight window, the scene a
// source box derives) and for every one-field change of its Physics and
// Shape, walked by reflection: a field SpecOf forgot would file a worker's
// result for other physics under the coordinator's key. KeepBank is never
// dispatched (see Engine.tryRemote).
func TestSpecOfRoundTrip(t *testing.T) {
	cfg := core.Default(mesh.Stream)
	cfg.NX, cfg.NY = 48, 48
	cfg.Particles = 1234
	cfg.Steps = 7
	cfg.Seed = 99
	cfg.Threads = 3
	cfg.KeepCells = true
	cfg.WeightWindow = core.WeightWindow{Enabled: true, Target: 1.5, Ratio: 8, SplitMax: 4}
	src, err := Spec{Problem: "stream", Source: &SourceSpec{X0: 0.1, X1: 0.4, Y0: 0.2, Y1: 0.3}}.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scene = src.Scene
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	other, err := scene.Preset(mesh.Scatter)
	if err != nil {
		t.Fatal(err)
	}

	roundTrip := func(name string, c core.Config) {
		t.Helper()
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, _ := c.Fingerprint()
		spec, err := SpecOf(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := spec.Config()
		if err == nil {
			err = back.Validate()
		}
		if err != nil {
			t.Fatalf("%s: round-tripped config: %v", name, err)
		}
		if got, _ := back.Fingerprint(); got != want {
			t.Errorf("%s: fingerprint changed across SpecOf round-trip:\n got %s\nwant %s", name, got, want)
		}
	}
	roundTrip("base", cfg)
	var mutate func(index []int, name string)
	mutate = func(index []int, name string) {
		c := cfg
		v := reflect.ValueOf(&c).Elem().FieldByIndex(index)
		switch {
		case v.Kind() == reflect.Struct:
			for i := range v.NumField() {
				mutate(append(index[:len(index):len(index)], i), name+"."+v.Type().Field(i).Name)
			}
			return
		case name == "Shape.KeepBank":
			return
		case v.Kind() == reflect.Bool:
			v.SetBool(!v.Bool())
		case v.CanInt():
			v.SetInt(v.Int() + 1)
		case v.CanUint():
			v.SetUint(v.Uint() + 1)
		case v.CanFloat():
			v.SetFloat(v.Float() * 2)
		case v.Type() == reflect.TypeOf(other):
			v.Set(reflect.ValueOf(other))
		default:
			t.Fatalf("no mutation for %s (%s)", name, v.Type())
		}
		roundTrip(name, c)
	}
	for _, part := range []string{"Physics", "Shape"} {
		f, _ := reflect.TypeOf(cfg).FieldByName(part)
		mutate(f.Index, part)
	}

	// A thread count travels only when the client set one: a job's config
	// keeps 0 as 0, and the worker that receives no count applies its own.
	spec, err := SpecOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wire, _ := json.Marshal(spec)
	if !strings.Contains(string(wire), `"threads":3`) {
		t.Errorf("a requested thread count is missing from the encoded spec: %s", wire)
	}
	if strings.Contains(string(wire), `"source"`) {
		t.Errorf("the source box travelled beside its scene: %s", wire)
	}
	unset := cfg
	unset.Threads = 0
	if spec, err = SpecOf(unset); err != nil {
		t.Fatal(err)
	}
	if wire, _ := json.Marshal(spec); strings.Contains(string(wire), `"threads"`) {
		t.Errorf("an unset thread count was put on the wire: %s", wire)
	}

	// An unvalidated config fails loudly instead of dispatching a shard
	// that computes different physics.
	if _, err := SpecOf(core.Config{}); err == nil {
		t.Error("SpecOf accepted an unvalidated config")
	}
}

// TestCheckpointWriteFailureSurfaces pins satellite hardening: when the
// checkpoint directory goes bad mid-flight, the job completes but carries a
// warning, and the failure counts on the metrics surface.
func TestCheckpointWriteFailureSurfaces(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	ts, e := newTestServer(t, Options{Shards: 1, QueueDepth: 4, Blobs: fsStore(t, dir)})
	// Break the directory after the engine adopted it: replace it with a
	// regular file, so every snapshot write fails with ENOTDIR — the
	// failure mode of a yanked volume, which permissions cannot simulate
	// when tests run as root.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	v := submitJob(t, ts, `{"problem":"csp","nx":32,"particles":200,"steps":3,"seed":8}`, false)
	waitState(t, ts, v.ID, StateDone)

	j, err := e.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	st := j.Status()
	warned := false
	for _, w := range st.Warnings {
		if strings.HasPrefix(w, "checkpoint: write failed") {
			warned = true
		}
	}
	if !warned {
		t.Errorf("no checkpoint-write warning on job; warnings = %v", st.Warnings)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "neutral_checkpoint_write_failures_total ") &&
			!strings.HasSuffix(line, " 0") {
			found = true
		}
	}
	if !found {
		t.Error("neutral_checkpoint_write_failures_total not incremented on /metrics")
	}

	// The warning also rides the job view for HTTP clients.
	var jv JobView
	getJSON(t, ts, "/v1/jobs/"+v.ID, &jv)
	if len(jv.Warnings) == 0 {
		t.Error("job view carries no warnings")
	}
}

// TestApplyRemoteUpdateMonotonic pins the step-history guard: replayed or
// rescheduled step events must never run the history backwards.
func TestApplyRemoteUpdateMonotonic(t *testing.T) {
	j := &Job{}
	step := func(n int) *StepView { return &StepView{Step: n, Steps: 5} }

	j.applyRemoteUpdate(RemoteUpdate{Worker: "w1", Step: step(0)})
	j.applyRemoteUpdate(RemoteUpdate{Worker: "w1", Step: step(1)})
	// A reconnect replays an already-recorded step: dropped.
	j.applyRemoteUpdate(RemoteUpdate{Worker: "w1", Step: step(1)})
	// A reschedule resumes from the checkpoint and replays step 1 from
	// the new worker: dropped too, but the attribution updates.
	j.applyRemoteUpdate(RemoteUpdate{Worker: "w2", Reschedules: 1, Step: step(1)})
	j.applyRemoteUpdate(RemoteUpdate{Worker: "w2", Reschedules: 1, Step: step(2)})

	steps := j.Steps()
	if len(steps) != 3 {
		t.Fatalf("recorded %d steps, want 3: %+v", len(steps), steps)
	}
	for i, sv := range steps {
		if sv.Step != i {
			t.Errorf("steps[%d].Step = %d, history not monotonic", i, sv.Step)
		}
	}
	st := j.Status()
	if st.Worker != "w2" || st.Reschedules != 1 {
		t.Errorf("attribution = %q/%d, want w2/1", st.Worker, st.Reschedules)
	}
	// Reschedules never decreases even if a stale update arrives late.
	j.applyRemoteUpdate(RemoteUpdate{Worker: "w2", Reschedules: 0})
	if got := j.Status().Reschedules; got != 1 {
		t.Errorf("stale update lowered reschedules to %d", got)
	}
}
