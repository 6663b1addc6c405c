package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/scene"
)

// sceneSpecJSON is a complete inline-scene submission: a small leaky box at
// reduced scale.
const sceneSpecJSON = `{
	"scene": {
		"name": "%s",
		"materials": [{"name": "%s", "density": 1e-10}],
		"sources": [{"x0": 1.0, "x1": 1.5, "y0": 1.0, "y1": 1.5}],
		"boundaries": {"x_hi": "vacuum"}
	},
	"nx": 64, "particles": 200, "threads": 2, "seed": 42
}`

func sceneSpec(name, material string) string {
	return strings.Replace(strings.Replace(sceneSpecJSON, "%s", name, 1), "%s", material, 1)
}

// TestAPISceneSubmissionsShareCacheEntry is the acceptance property: two
// submissions whose inline scenes are physically equivalent — different
// cosmetic names, different material names, same physics — key to the same
// fingerprint, so the second is served from the cache without a solve.
func TestAPISceneSubmissionsShareCacheEntry(t *testing.T) {
	ts, e := newTestServer(t, Options{Shards: 2, QueueDepth: 8})

	v1 := submitJob(t, ts, sceneSpec("box-a", "air"), false)
	j1, err := e.Job(v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done()
	res1, err := j1.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res1.Counter.Escapes == 0 {
		t.Fatal("leaky scene produced no escapes")
	}
	// The wire result reports the vacuum losses.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v1.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var rv ResultView
	if err := json.NewDecoder(resp.Body).Decode(&rv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rv.Escapes == 0 || rv.Leakage == nil || rv.Leakage.TotalEnergy <= 0 {
		t.Errorf("result view missing leakage: %+v", rv)
	}
	if rv.Leakage != nil && rv.Leakage.Energy["x-hi"] <= 0 {
		t.Errorf("x-hi leakage absent from result view: %+v", rv.Leakage)
	}

	// Equivalent physics, different names: born terminal from the cache.
	submitJob(t, ts, sceneSpec("box-b", "void"), true)
	if runs := e.Stats().Runs; runs != 1 {
		t.Errorf("engine ran %d solves, want 1", runs)
	}

	// A physics change (moving the vacuum edge) must miss.
	submitJob(t, ts, strings.Replace(sceneSpec("box-c", "air"), `"x_hi"`, `"y_lo"`, 1), false)
}

// TestAPISceneValidation: malformed and physically invalid inline scenes are
// rejected at submission with 400s, as is a spec naming neither a problem
// nor a scene.
func TestAPISceneValidation(t *testing.T) {
	ts, _ := newTestServer(t, Options{Shards: 1, QueueDepth: 4})
	for name, spec := range map[string]string{
		"neither problem nor scene": `{"nx":64,"particles":100}`,
		"scene without sources":     `{"scene":{"materials":[{"name":"m","density":1}]}}`,
		"unknown scene field":       `{"scene":{"materialz":[{"name":"m","density":1}],"sources":[{"x0":0,"x1":1,"y0":0,"y1":1}]}}`,
		"bad boundary":              `{"scene":{"materials":[{"name":"m","density":1}],"sources":[{"x0":0,"x1":1,"y0":0,"y1":1}],"boundaries":{"x_lo":"periodic"}}}`,
	} {
		if _, code := postJob(t, ts, spec); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
}

// TestAPIDefaultScene: an engine configured with a default scene applies it
// to submissions that name neither a problem nor a scene, while explicit
// problems and scenes still win.
func TestAPIDefaultScene(t *testing.T) {
	def, err := scene.Parse([]byte(`{
		"name": "house-default",
		"materials": [{"name": "air", "density": 1e-10}],
		"sources": [{"x0": 1.0, "x1": 1.5, "y0": 1.0, "y1": 1.5}],
		"boundaries": {"x_lo": "vacuum"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ts, e := newTestServer(t, Options{Shards: 1, QueueDepth: 4, DefaultScene: def})

	v := submitJob(t, ts, `{"nx":64,"particles":100,"seed":7}`, false)
	j, err := e.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Counter.Escapes == 0 {
		t.Error("default scene (leaky) not applied to the problem-less submission")
	}
	if got := j.Config().Scene; got == nil || got.Name != "house-default" {
		t.Errorf("job config scene = %+v, want the default scene", got)
	}

	// An explicit problem bypasses the default scene.
	v2 := submitJob(t, ts, `{"problem":"csp","nx":64,"particles":100,"seed":7}`, false)
	j2, _ := e.Job(v2.ID)
	<-j2.Done()
	if sc := j2.Config().Scene; sc == nil || sc.Name != "csp" {
		t.Errorf("explicit problem resolved to scene %+v, want the csp preset", sc)
	}
}

// TestSceneSpecJSONRoundTrip: a Spec carrying a scene survives the JSON
// round trip the batch endpoint and clients perform.
func TestSceneSpecJSONRoundTrip(t *testing.T) {
	var spec Spec
	if err := json.Unmarshal([]byte(sceneSpec("rt", "air")), &spec); err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scene == nil || !cfg.Scene.HasVacuum() {
		t.Fatalf("scene lost in Spec.Config: %+v", cfg.Scene)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	cfg2, err := back.Config()
	if err != nil {
		t.Fatal(err)
	}
	k1, _ := cfg.Fingerprint()
	k2, _ := cfg2.Fingerprint()
	if k1 != k2 {
		t.Error("spec JSON round trip moved the fingerprint")
	}
}
