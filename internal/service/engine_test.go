package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/service/blob"
)

// submitted is one outcome of submitAll: an admitted job or its admission
// error.
type submitted struct {
	Job *Job
	Err error
}

// submitAll submits the configs in order, as POST /v1/batch does.
func submitAll(e *Engine, cfgs []core.Config) []submitted {
	items := make([]submitted, len(cfgs))
	for i, cfg := range cfgs {
		items[i].Job, items[i].Err = e.Submit(cfg)
	}
	return items
}

// TestJobHistoryBounded: the engine remembers every job in flight and the
// newest jobHistory finished ones. The first job submitted blocks for the
// whole test, so it is the oldest job and must outlive the thousand finished
// after it; the second is the first to be forgotten.
func TestJobHistoryBounded(t *testing.T) {
	const total = jobHistory + 76
	e := New(Options{Shards: 2, QueueDepth: total})
	ts := httptest.NewServer(NewServer(e))
	defer func() {
		ts.Close()
		e.Close()
	}()
	release := make(chan struct{})
	e.runFn = func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		if cfg.Seed == 1 {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &core.Result{Config: cfg}, nil
	}

	var all, live []*Job
	for i := 1; i <= total; i++ {
		// Jobs in flight now, plus the one about to be admitted, bound the
		// jobs in flight when record runs: between submits they only finish.
		inFlight := live[:0]
		for _, j := range live {
			// Known first, finished second: a job forgotten in between was
			// finished before it was forgotten.
			_, err := e.Job(j.ID())
			select {
			case <-j.Done():
			default:
				if err != nil {
					t.Fatalf("%s dropped while %s: %v", j.ID(), j.Status().State, err)
				}
				inFlight = append(inFlight, j)
			}
		}
		live = inFlight
		j, err := e.Submit(seededConfig(uint64(i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		all, live = append(all, j), append(live, j)
		if n := len(e.Jobs()); n > jobHistory+len(live) {
			t.Fatalf("after %d submits the engine remembers %d jobs, %d in flight", i, n, len(live))
		}
	}
	awaitDone(t, "history", all[1:]...)

	// One more admission runs the sweep over a history that is all finished
	// but for the gated job.
	last, err := e.Submit(seededConfig(total + 1))
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, "history", last)
	if n := len(e.Jobs()); n > jobHistory+2 {
		t.Errorf("engine remembers %d jobs, want at most %d finished and 2 in flight", n, jobHistory)
	}
	if j, err := e.Job(all[0].ID()); err != nil || j != all[0] {
		t.Errorf("running job %s forgotten: %v", all[0].ID(), err)
	}
	if _, err := e.Job(all[1].ID()); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("oldest finished job %s: err %v, want ErrUnknownJob", all[1].ID(), err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + all[1].ID())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET of a forgotten job: status %d, want 404", resp.StatusCode)
	}
	if _, err := e.Job(last.ID()); err != nil {
		t.Errorf("newest job: %v", err)
	}

	close(release)
	awaitDone(t, "history", all[0])
	if s := e.Stats(); s.Completed != total+1 || s.Submitted != total+1 {
		t.Errorf("lifetime counters %+v, want %d submitted and completed", s, total+1)
	}
	if got := e.countJobs(StateDone); got != len(e.Jobs()) {
		t.Errorf("neutral_jobs{state=done} = %d, engine remembers %d", got, len(e.Jobs()))
	}
}

// TestCheckpointInFlight drives the SIGTERM drain: of a seeded job blocked
// before its first boundary, a job that holds no checkpoint and a finished
// job that kept its own, only the first is written, and an engine started
// over the same store resumes from it.
func TestCheckpointInFlight(t *testing.T) {
	cfg := ckptConfig(4)
	want, err := core.Run(cfg)
	if err != nil {
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
	seed := sim.Snapshot()
	bare, finished := cfg, cfg
	bare.Seed, finished.Seed = cfg.Seed+1, cfg.Seed+2

	mem := blob.NewMem()
	e := New(Options{Shards: 2, Blobs: mem})
	entered := make(chan struct{}, 2)
	e.runFn = func(ctx context.Context, c core.Config) (*core.Result, error) {
		if c.Seed == finished.Seed {
			return &core.Result{Config: c}, nil
		}
		entered <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	fj, err := e.SubmitWith(finished, SubmitOptions{Snapshot: seed, RetainSnapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, fj)
	if kept, _ := fj.Snapshot(); kept == nil {
		t.Fatal("a finished retain_snapshot job let its checkpoint go; the drain has nothing to skip")
	}
	sj, err := e.SubmitWith(cfg, SubmitOptions{Snapshot: seed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(bare); err != nil {
		t.Fatal(err)
	}
	<-entered
	<-entered

	if n := e.CheckpointInFlight(); n != 1 {
		t.Errorf("drain wrote %d checkpoints, want 1", n)
	}
	keys, err := mem.List("checkpoints/")
	if err != nil {
		t.Fatal(err)
	}
	if wantKey := "checkpoints/" + sj.key; len(keys) != 1 || keys[0] != wantKey {
		t.Fatalf("store holds checkpoints %v, want [%s]", keys, wantKey)
	}
	e.Close()

	e2 := New(Options{Shards: 1, Blobs: mem})
	defer e2.Close()
	j, err := e2.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateDone || st.ResumedFrom != 2 {
		t.Fatalf("restarted job: state %v (err %v), resumed from %d; want done, resumed from 2", st.State, st.Err, st.ResumedFrom)
	}
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.TallyTotal != want.TallyTotal || res.Counter != want.Counter {
		t.Errorf("resumed run: tally %g counters %+v, uninterrupted %g %+v",
			res.TallyTotal, res.Counter, want.TallyTotal, want.Counter)
	}
	if n := e2.CheckpointInFlight(); n != 0 {
		t.Errorf("drain of an idle engine wrote %d checkpoints", n)
	}
}

// TestFinishOnlyFrom races Cancel against the worker's start. Exactly one of
// them takes the job out of StateQueued: either it is canceled while queued
// and never runs, or it runs and is canceled through its context — one
// canceled transition either way, and the queue never hands out a job that
// lost.
func TestFinishOnlyFrom(t *testing.T) {
	var ranCount, queuedCount int
	for race := 0; race < 200; race++ {
		e := New(Options{Shards: 1})
		entered := make(chan struct{}, 1)
		e.runFn = func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			if cfg.Seed != 0 {
				return &core.Result{Config: cfg}, nil
			}
			entered <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}
		j, err := e.Submit(seededConfig(0))
		if err != nil {
			t.Fatal(err)
		}
		// The worker is popping the job meanwhile; yielding a varying number
		// of times lets each side win some of the races.
		for k := 0; k < race%8; k++ {
			runtime.Gosched()
		}
		if err := e.Cancel(j.ID()); err != nil {
			t.Fatal(err)
		}
		st := waitDone(t, j)
		// A job behind it drains the queue past where the loser would be.
		after, err := e.Submit(seededConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, after)
		ran := len(entered) == 1
		if ran {
			ranCount++
		} else {
			queuedCount++
		}
		what := fmt.Sprintf("race %d (ran %t)", race, ran)
		if st.State != StateCanceled || !errors.Is(st.Err, context.Canceled) {
			t.Fatalf("%s: state %v, err %v", what, st.State, st.Err)
		}
		if ran == st.Started.IsZero() {
			t.Fatalf("%s: started at %v", what, st.Started)
		}
		if s := e.Stats(); s.Canceled != 1 || s.Completed != 1 || s.Queued != 0 || s.Runs != uint64(len(entered))+1 {
			t.Fatalf("%s: stats %+v", what, s)
		}
		e.Close()
		if s := e.Stats(); s.Canceled != 1 {
			t.Fatalf("%s: Close canceled the job again: %+v", what, s)
		}
	}
	t.Logf("canceled while queued %d times, while running %d times", queuedCount, ranCount)
}
