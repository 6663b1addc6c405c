package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"repro/internal/core"
)

var sseTimestamps = regexp.MustCompile(`"(submitted|started|finished)":"[^"]*"`)

// streamBody returns the whole SSE body of a job's stream with the job
// view's timestamps masked. lastEventID, when not empty, is sent as the
// reconnect header.
func streamBody(t *testing.T, ts *httptest.Server, id, lastEventID string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/stream", nil)
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
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return sseTimestamps.ReplaceAllString(string(body), `"$1":"T"`)
}

// TestStreamBytes pins the SSE wire format byte for byte. A subscriber that
// connects after the job finished gets its whole history in one flush — step
// events, then replica events, then done — so the body is deterministic: the
// literals below are what the stream has always written for these two jobs. A
// reconnect with Last-Event-ID resumes after the event it names.
func TestStreamBytes(t *testing.T) {
	e := New(Options{Shards: 2})
	ts := httptest.NewServer(NewServer(e))
	defer func() {
		ts.Close()
		e.Close()
	}()
	release := make(chan struct{})
	e.runFn = func(ctx context.Context, cfg core.Config, _ core.ProgressFunc) (*core.Result, error) {
		if cfg.Seed == 1 { // the plain job waits for the test to record its steps
			<-release
			return &core.Result{Config: cfg, TallyTotal: 30, Wall: 3 * time.Second}, nil
		}
		n := time.Duration(cfg.Replica + 1)
		return &core.Result{Config: cfg, TallyTotal: float64(10 * n), Wall: n * 250 * time.Millisecond}, nil
	}

	plain := smallConfig()
	plain.Seed, plain.Steps = 1, 3
	pj, err := e.Submit(plain)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		pj.addStep(StepView{Step: s, Steps: 3, TallyTotal: float64(10 * (s + 1)), WallSeconds: float64(s + 1),
			Alive: 200 - 10*s, Census: 5 * s, Dead: 5 * s})
	}
	close(release)
	waitDone(t, pj)

	ens := ensembleConfig(2)
	ens.Seed = 2
	ej, err := e.Submit(ens)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ej)

	const plainDone = `event: done
data: {"id":"job-000001","state":"done","progress":1,"step":2,"steps":3,"steps_done":3,"submitted":"T","started":"T","finished":"T"}

`
	const plainStep3 = `id: s3r1
event: step
data: {"step":2,"steps":3,"tally_total":30,"wall_seconds":3,"alive":180,"census":10,"dead":10}

`
	const ensDone = `event: done
data: {"id":"job-000002","state":"done","progress":1,"step":0,"steps":1,"replicas":2,"replicas_done":2,"submitted":"T","started":"T","finished":"T"}

`
	const ensReplay = `id: s0r1
event: replica
data: {"replica":0,"replicas":2,"job_id":"job-000003","tally_total":10,"wall_seconds":0.25}

id: s0r2
event: replica
data: {"replica":1,"replicas":2,"job_id":"job-000004","tally_total":20,"wall_seconds":0.5}

`
	for _, tc := range []struct {
		name, id, lastEventID, want string
	}{
		{"plain", pj.ID(), "", `id: s1r0
event: step
data: {"step":0,"steps":3,"tally_total":10,"wall_seconds":1,"alive":200,"census":0,"dead":0}

id: s2r0
event: step
data: {"step":1,"steps":3,"tally_total":20,"wall_seconds":2,"alive":190,"census":5,"dead":5}

id: s3r0
event: step
data: {"step":2,"steps":3,"tally_total":30,"wall_seconds":3,"alive":180,"census":10,"dead":10}

` + plainDone},
		{"plain-reconnect", pj.ID(), "s2r1", plainStep3 + plainDone},
		{"ensemble", ej.ID(), "", ensReplay + ensDone},
		{"ensemble-reconnect", ej.ID(), "s2r1", `id: s2r2
event: replica
data: {"replica":1,"replicas":2,"job_id":"job-000004","tally_total":20,"wall_seconds":0.5}

` + ensDone},
		{"unparseable-id-replays-all", ej.ID(), "nonsense", ensReplay + ensDone},
	} {
		if got := streamBody(t, ts, tc.id, tc.lastEventID); got != tc.want {
			t.Errorf("%s: stream body\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}
