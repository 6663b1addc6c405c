package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// stubRunner is a RemoteRunner whose shard is whatever the test says.
type stubRunner func(ctx context.Context, cfg core.Config, update func(RemoteUpdate)) (*core.Result, error)

func (f stubRunner) RunShard(ctx context.Context, cfg core.Config, _ []byte, update func(RemoteUpdate)) (*Filed, error) {
	res, err := f(ctx, cfg, update)
	if err != nil {
		return nil, err
	}
	return fileResult(res), nil
}

// waitDone fails the test unless the job reaches a terminal state soon.
func waitDone(t *testing.T, j *Job) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("%s never became terminal: %v", j.ID(), err)
	}
	return j.Status()
}

// TestTerminalJobReleasesCheckpoint: an engine keeps every job it ever ran,
// so a dispatching engine's job must not keep the last snapshot its runner
// pulled once nothing can resume it. The pulled bytes carry a finalizer: the
// job is done, still listed, and the bytes are collectable.
func TestTerminalJobReleasesCheckpoint(t *testing.T) {
	cfg := ckptConfig(3)
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	e := New(Options{Shards: 1, Remote: stubRunner(
		func(_ context.Context, _ core.Config, update func(RemoteUpdate)) (*core.Result, error) {
			pulled := make([]byte, 256<<10)
			runtime.SetFinalizer(&pulled[0], func(*byte) { close(freed) })
			update(RemoteUpdate{Worker: "w1", Step: &StepView{Step: 0, Steps: 3}, Snapshot: pulled})
			return want, nil
		})})
	defer e.Close()

	j, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, j); st.State != StateDone || st.Worker != "w1" {
		t.Fatalf("state %v on %q, err %v", st.State, st.Worker, st.Err)
	}
	if data, _ := j.Snapshot(); data != nil {
		t.Errorf("done job still serves a %d-byte checkpoint", len(data))
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the pulled snapshot is still reachable from a done job")
		}
	}
}

// TestRemoteFallbackResumesFromPulledCheckpoint: a dispatch that pulled a
// checkpoint and then lost its fleet degrades to the local path, whose acquire
// resumes from that checkpoint — on a worker that already holds another job's
// simulation — and ends on the uninterrupted result; the checkpoint is
// released at the end like any other.
func TestRemoteFallbackResumesFromPulledCheckpoint(t *testing.T) {
	cfg := ckptConfig(4)
	cfg.KeepCells = true
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
	pulled := sim.Snapshot()

	e := New(Options{Shards: 1, Remote: stubRunner(
		func(_ context.Context, c core.Config, update func(RemoteUpdate)) (*core.Result, error) {
			if c.Seed != cfg.Seed {
				return nil, ErrNoWorkers // the warm-up job: straight to local
			}
			update(RemoteUpdate{Worker: "w1", Step: &StepView{Step: 1, Steps: 4}, Snapshot: pulled})
			return nil, fmt.Errorf("stub: fleet gone: %w", ErrNoWorkers)
		})})
	defer e.Close()

	warm := smallConfig()
	warm.Seed = cfg.Seed + 1
	jw, err := e.Submit(warm)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, jw); st.State != StateDone {
		t.Fatalf("warm-up job: state %v, err %v", st.State, st.Err)
	}

	j, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateDone {
		t.Fatalf("state %v, err %v", st.State, st.Err)
	}
	if st.ResumedFrom != 2 {
		t.Errorf("resumed from %d, want 2", st.ResumedFrom)
	}
	if len(st.Warnings) != 1 || !strings.Contains(st.Warnings[0], "degraded to local") {
		t.Errorf("warnings %q, want the one degradation notice", st.Warnings)
	}
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Counter != want.Counter || res.TallyTotal != want.TallyTotal {
		t.Errorf("resumed: tally %.17g counters %+v\nwant     tally %.17g counters %+v",
			res.TallyTotal, res.Counter, want.TallyTotal, want.Counter)
	}
	for i := range want.Cells {
		if res.Cells[i] != want.Cells[i] {
			t.Fatalf("cell %d = %.17g, want %.17g", i, res.Cells[i], want.Cells[i])
		}
	}
	if data, _ := j.Snapshot(); data != nil {
		t.Error("done job still holds the pulled checkpoint")
	}
}

// TestEnsembleParentOneTerminalTransition: an ensemble parent whose replica
// fails, and one canceled mid-flight, end through the same settle as any job:
// one terminal state that a later Close does not overwrite, every child
// terminal too, the lifetime counters adding up to the jobs submitted and the
// running gauge back at zero.
func TestEnsembleParentOneTerminalTransition(t *testing.T) {
	boom := errors.New("stub: replica blew up")
	for _, tc := range []struct {
		name  string
		run   func(ctx context.Context, cfg core.Config, p core.ProgressFunc) (*core.Result, error)
		abort bool
		want  State
	}{
		// The parent folds replicas in order, so replica 0 has to finish for
		// replica 1's failure to be seen.
		{"replica-fails", func(ctx context.Context, cfg core.Config, p core.ProgressFunc) (*core.Result, error) {
			if cfg.Replica == 1 {
				return nil, boom
			}
			return core.RunCtx(ctx, cfg, p)
		}, false, StateFailed},
		{"canceled", func(ctx context.Context, _ core.Config, _ core.ProgressFunc) (*core.Result, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}, true, StateCanceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Options{Shards: 2})
			e.runFn = tc.run
			j, err := e.Submit(ensembleConfig(3))
			if err != nil {
				t.Fatal(err)
			}
			if tc.abort {
				if err := e.Cancel(j.ID()); err != nil {
					t.Fatal(err)
				}
			}
			st := waitDone(t, j)
			if st.State != tc.want {
				t.Fatalf("parent state %v (err %v), want %v", st.State, st.Err, tc.want)
			}
			if tc.want == StateFailed && !errors.Is(st.Err, boom) {
				t.Errorf("parent error %v does not carry the replica's", st.Err)
			}
			// A parent canceled before its goroutine started never fanned out.
			jobs := e.Jobs()
			for _, c := range jobs {
				waitDone(t, c)
			}
			s := e.Stats()
			if got := s.Completed + s.Failed + s.Canceled; got != uint64(len(jobs)) {
				t.Errorf("%d terminal transitions for %d jobs (%+v)", got, len(jobs), s)
			}
			for deadline := time.Now().Add(5 * time.Second); e.Stats().Running != 0; {
				if time.Now().After(deadline) {
					t.Fatalf("running gauge stuck at %d", e.Stats().Running)
				}
				time.Sleep(time.Millisecond)
			}
			e.Close()
			if after := j.Status(); after.State != st.State || after.Finished != st.Finished {
				t.Errorf("Close moved a terminal parent: %v at %v, was %v at %v",
					after.State, after.Finished, st.State, st.Finished)
			}
		})
	}
}
