package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/service/blob"
)

// TestCadenceRule drives the checkpoint cadence with injected clock readings:
// the first boundary is due, a later one only once checkpointBudget times the
// last measured cost has passed since that checkpoint ended, and a checkpoint
// that got dearer stretches the interval with it.
func TestCadenceRule(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	const ms = time.Millisecond

	var c cadence
	if !c.due(t0) {
		t.Fatal("the first boundary a run reaches is not due")
	}
	c.took(t0, at(2*ms)) // cost 2 ms, ended at 2 ms: next due at 2 + 16×2 = 34 ms
	for _, d := range []time.Duration{2 * ms, 10 * ms, 34*ms - 1} {
		if c.due(at(d)) {
			t.Errorf("due %v after a 2 ms checkpoint that ended at 2 ms; the budget runs to 34 ms", d)
		}
	}
	for _, d := range []time.Duration{34 * ms, 50 * ms} {
		if !c.due(at(d)) {
			t.Errorf("not due at %v, past the 34 ms the budget runs to", d)
		}
	}

	c.took(at(40*ms), at(45*ms)) // cost grew to 5 ms: next due at 45 + 80 = 125 ms
	if c.due(at(45*ms + checkpointBudget*2*ms)) {
		t.Error("the interval did not stretch with the cost: still spaced by the old 2 ms checkpoint")
	}
	if c.due(at(125*ms-1)) || !c.due(at(125*ms)) {
		t.Error("after a 5 ms checkpoint ending at 45 ms the next is due at 125 ms, not before")
	}
}

// TestRetainedCheckpointPacedByPulls: a retain_snapshot job whose key has no
// durable store checkpoints at its first boundary and replaces that checkpoint
// only at the first due boundary after GET /snapshot read it, however many
// boundaries the cost cadence finds due meanwhile; with a store, the same job
// follows the cadence alone.
func TestRetainedCheckpointPacedByPulls(t *testing.T) {
	// 40 steps, each ~100 times what its checkpoint costs: every boundary is
	// due by cost.
	cfg := streamConfig(64, 200, 40, 32)
	submit := func(t *testing.T, opts Options) (*httptest.Server, *Engine, *Job) {
		t.Helper()
		ts, e := newTestServer(t, opts)
		j, err := e.SubmitWith(cfg, SubmitOptions{RetainSnapshot: true})
		if err != nil {
			t.Fatal(err)
		}
		return ts, e, j
	}
	taken := func(e *Engine) int { return int(e.store.checkpointSeconds.Count()) }

	t.Run("no-store", func(t *testing.T) {
		ts, e, j := submit(t, Options{Shards: 1})
		deadline := time.Now().Add(30 * time.Second)
		for j.Status().StepsDone < 3 {
			if time.Now().After(deadline) || j.Status().State.Terminal() {
				t.Fatalf("job at %+v before its third boundary was seen", j.Status())
			}
			time.Sleep(time.Millisecond)
		}
		if _, step := j.Snapshot(); step != 1 || taken(e) != 1 {
			t.Fatalf("unread: the job holds boundary %d after %d checkpoints, want its first boundary only", step, taken(e))
		}
		before := j.Status().StepsDone
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID() + "/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		after := j.Status().StepsDone
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Neutral-Step") != "1" || resp.ContentLength <= 0 {
			t.Fatalf("pull: status %d, step %q, length %d", resp.StatusCode, resp.Header.Get("X-Neutral-Step"), resp.ContentLength)
		}
		if after >= cfg.Steps {
			t.Skip("the job ended with the pull; machine too fast for this config")
		}
		if st := waitDone(t, j); st.State != StateDone {
			t.Fatalf("state %v, err %v", st.State, st.Err)
		}
		_, step := j.Snapshot()
		if taken(e) != 2 || step < before+1 || step > after+1 {
			t.Errorf("after one pull between boundaries %d and %d: %d checkpoints, holding boundary %d; want 2, the first after the pull",
				before, after+1, taken(e), step)
		}
		if skipped := int(e.store.checkpointSkipped.Value()); skipped != cfg.Steps-2 {
			t.Errorf("%d boundaries counted skipped, want the other %d", skipped, cfg.Steps-2)
		}
	})
	t.Run("durable", func(t *testing.T) {
		_, e, j := submit(t, Options{Shards: 1, Blobs: blob.NewMem()})
		if st := waitDone(t, j); st.State != StateDone {
			t.Fatalf("state %v, err %v", st.State, st.Err)
		}
		if taken(e) < cfg.Steps*3/4 {
			t.Errorf("%d checkpoints over %d unread boundaries each due by cost, want (nearly) all", taken(e), cfg.Steps)
		}
	})
}

// streamConfig is a facet-only run whose population never dies, so every step
// costs the same, in proportion to particles × nx × stretch (the timestep's
// multiple of the default): ~50 µs for 100 particles on 32² at stretch 1.
func streamConfig(nx, particles, steps int, stretch float64) core.Config {
	cfg := core.Default(mesh.Stream)
	cfg.NX, cfg.NY = nx, nx
	cfg.Particles = particles
	cfg.Steps = steps
	cfg.Timestep *= stretch
	cfg.Threads = 1
	return cfg
}

// slowPuts is a blob.Store whose checkpoint puts take at least delay.
type slowPuts struct {
	blob.Store
	delay time.Duration
}

func (s slowPuts) Put(key string, data []byte) error {
	if strings.HasPrefix(key, "checkpoints/") {
		time.Sleep(s.delay)
	}
	return s.Store.Put(key, data)
}

// TestCheckpointCadenceFollowsCost: how often a job checkpoints follows what a
// checkpoint costs beside the run, not a step count. Sixty cheap steps over a
// store whose put takes 5 ms (an 80 ms budget, many times the whole run)
// checkpoint once or little more; six steps that each dwarf an in-memory
// checkpoint take one at every boundary whose steps since the last one
// outlast the budget, as the job recorded its step walls and the engine its
// checkpoint costs.
func TestCheckpointCadenceFollowsCost(t *testing.T) {
	// run solves cfg over blobs and reports how many boundaries checkpointed
	// and what they cost in all, as the engine's own metrics have it, and the
	// job's step records.
	run := func(t *testing.T, blobs blob.Store, cfg core.Config) (writes int, cost float64, steps []StepView) {
		t.Helper()
		e := New(Options{Shards: 1, Blobs: blobs})
		defer e.Close()
		// A retained snapshot names its boundary on every step record; with
		// a durable store the cadence alone decides when one is taken.
		j, err := e.SubmitWith(cfg, SubmitOptions{RetainSnapshot: true})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitDone(t, j); st.State != StateDone || len(st.Warnings) != 0 {
			t.Fatalf("state %v, warnings %v, err %v", st.State, st.Warnings, st.Err)
		}
		writes = int(e.store.checkpointWrites.Value())
		if skipped := int(e.store.checkpointSkipped.Value()); writes+skipped != cfg.Steps {
			t.Errorf("%d writes + %d skipped boundaries, want the job's %d steps", writes, skipped, cfg.Steps)
		}
		if got := int(e.store.checkpointSeconds.Count()); got != writes {
			t.Errorf("neutral_checkpoint_seconds has %d samples for %d checkpoints", got, writes)
		}
		return writes, e.store.checkpointSeconds.Sum(), j.Steps()
	}

	t.Run("dear-put-cheap-steps", func(t *testing.T) {
		const delay = 5 * time.Millisecond
		writes, cost, _ := run(t, slowPuts{blob.NewMem(), delay}, streamConfig(32, 100, 60, 1))
		if writes < 1 || writes > 60/4 {
			t.Errorf("%d checkpoints over 60 cheap steps with a 5 ms put, want at least 1 and far fewer than 60", writes)
		}
		if cost/float64(writes) < delay.Seconds() {
			t.Errorf("measured checkpoint cost %.4f s, below the put's %v alone", cost/float64(writes), delay)
		}
	})
	t.Run("dear-steps-cheap-put", func(t *testing.T) {
		// Each step costs ~100 in-memory checkpoints, so most boundaries are
		// due; but a checkpoint the host happened to slow stretches the
		// interval after it, so which ones are is read from the records. A
		// boundary skipped since the one at last is due unless the step walls
		// since then, which its clock saw pass, fall short of the budget on
		// the dearest checkpoint, which cost at most all of them together.
		writes, cost, steps := run(t, blob.NewMem(), streamConfig(64, 200, 6, 32))
		if len(steps) != 6 || steps[0].StepWall == 0 {
			t.Fatalf("%d step records, want 6 with their walls", len(steps))
		}
		budget := time.Duration(checkpointBudget * cost * float64(time.Second))
		last, since := 0, time.Duration(0)
		for _, st := range steps {
			since += st.StepWall
			switch {
			case st.Checkpoint == st.Step+1:
				last, since = st.Checkpoint, 0
			case last == 0:
				t.Errorf("step %d: the first boundary did not checkpoint (holding %d)", st.Step, st.Checkpoint)
			case since >= budget:
				t.Errorf("boundary %d skipped %v of steps after the checkpoint at %d; %d checkpoints cost %v in all, a budget of %v",
					st.Step+1, since, last, writes, time.Duration(cost*float64(time.Second)), budget)
			}
		}
	})
}
