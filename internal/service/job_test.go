package service

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// TestJobSince drives a job's writers in random order on one goroutine while
// another follows it with since, as a stream subscriber does. Every read must
// be one instant of the job: the views continue exactly where the cursors
// stood, the Status beside them counts exactly the views handed out so far,
// and the reads together are the whole history, nothing twice, nothing
// skipped.
func TestJobSince(t *testing.T) {
	e := New(Options{Shards: 1})
	defer e.Close()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		j := newJob(e, "job-000001", "", smallConfig(), SubmitOptions{})
		ops := make([]int, 300)
		for i := range ops {
			ops[i] = rng.Intn(3)
		}
		go func() {
			steps, replicas := 0, 0
			for i, op := range ops {
				switch op {
				case 0:
					j.addStep(StepView{Step: steps, Steps: len(ops)})
					steps++
				case 1:
					j.addReplica(ReplicaView{Replica: replicas, Replicas: len(ops)})
					replicas++
				case 2:
					j.addWarning(fmt.Sprintf("warning %d", i%7))
				}
				runtime.Gosched() // interleave with the reader on one P too
			}
			j.finish("", StateDone, fileResult(&core.Result{Config: j.cfg}), nil, nil, false)
		}()

		var steps []StepView
		var replicas []ReplicaView
		warnings := 0
		for finished := false; !finished; {
			select {
			case <-j.Done():
				finished = true // the read below is the subscriber's last
			default:
			}
			runtime.Gosched()
			fresh, freshReps, st := j.since(len(steps), len(replicas))
			for i, sv := range fresh {
				if sv.Step != len(steps)+i {
					t.Fatalf("seed %d: step %d handed out at position %d", seed, sv.Step, len(steps)+i)
				}
			}
			for i, rv := range freshReps {
				if rv.Replica != len(replicas)+i {
					t.Fatalf("seed %d: replica %d handed out at position %d", seed, rv.Replica, len(replicas)+i)
				}
			}
			steps, replicas = append(steps, fresh...), append(replicas, freshReps...)
			if st.StepsDone != len(steps) || st.ReplicasDone != len(replicas) {
				t.Fatalf("seed %d: status counts %d steps and %d replicas beside views up to %d and %d",
					seed, st.StepsDone, st.ReplicasDone, len(steps), len(replicas))
			}
			if n := len(steps); n > 0 && st.State != StateDone && st.Step != steps[n-1].Step {
				t.Fatalf("seed %d: status at step %d beside a last view of step %d", seed, st.Step, steps[n-1].Step)
			}
			if len(st.Warnings) < warnings {
				t.Fatalf("seed %d: status went back from %d warnings to %d", seed, warnings, len(st.Warnings))
			}
			warnings = len(st.Warnings)
			if finished && st.State != StateDone {
				t.Fatalf("seed %d: read after done says %s", seed, st.State)
			}
		}
		if !reflect.DeepEqual(steps, j.Steps()) || !reflect.DeepEqual(replicas, j.Replicas()) {
			t.Fatalf("seed %d: since handed out %d steps and %d replicas, the job holds %d and %d",
				seed, len(steps), len(replicas), len(j.Steps()), len(j.Replicas()))
		}
		if fresh, freshReps, _ := j.since(len(steps), len(replicas)); fresh != nil || freshReps != nil {
			t.Fatalf("seed %d: a read at the end returned %v and %v", seed, fresh, freshReps)
		}
		if fresh, freshReps, _ := j.since(len(steps)+5, len(replicas)+5); fresh != nil || freshReps != nil {
			t.Fatalf("seed %d: a cursor past the end returned %v and %v", seed, fresh, freshReps)
		}
	}
}

// TestJobViewSameOnEveryPath: a job's progress, step and steps follow its step
// records (its resume point before the first, its merged replicas for an
// ensemble), so a job reads the same at every boundary whether it was solved
// here, forwarded from a worker or resumed. Each case reads a queued job of
// its config, then its job until done; the reads must be the case's rows in
// order, any skipped, ending on the last. The stubbed paths read at every
// boundary; the solved ones are read as often as a poll allows, mid-step too.
func TestJobViewSameOnEveryPath(t *testing.T) {
	type row struct {
		Progress                             float64
		Step, Steps, StepsDone, ReplicasDone int
	}
	const n = 4
	cfg := streamConfig(64, 200, n, 128) // tens of milliseconds a step
	follow := func(j *Job, read func(*Job)) {
		for {
			read(j)
			select {
			case <-j.Done():
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}
	submit := func(t *testing.T, e *Engine, c core.Config, so SubmitOptions) *Job {
		t.Helper()
		j, err := e.SubmitWith(c, so)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	cases := []struct {
		name string
		rows []row
		run  func(t *testing.T, read func(*Job)) *Job
	}{
		{"local", []row{{0, 0, n, 0, 0}, {0.25, 0, n, 1, 0}, {0.5, 1, n, 2, 0}, {0.75, 2, n, 3, 0}, {1, 3, n, 4, 0}},
			func(t *testing.T, read func(*Job)) *Job {
				e := New(Options{Shards: 1})
				t.Cleanup(e.Close)
				read(newJob(e, "queued", "", cfg, SubmitOptions{}))
				j := submit(t, e, cfg, SubmitOptions{})
				follow(j, read)
				return j
			}},
		{"remote", []row{{0, 0, n, 0, 0}, {0.25, 0, n, 1, 0}, {0.5, 1, n, 2, 0}, {0.75, 2, n, 3, 0}, {1, 3, n, 4, 0}},
			func(t *testing.T, read func(*Job)) *Job {
				at, next := make(chan struct{}), make(chan struct{})
				e := New(Options{Shards: 1, Remote: stubRunner(
					func(_ context.Context, c core.Config, update func(RemoteUpdate)) (*core.Result, error) {
						at <- struct{}{}
						for s := 0; s < n; s++ {
							<-next
							update(RemoteUpdate{Worker: "w1", Step: &StepView{Step: s, Steps: n}})
							at <- struct{}{}
						}
						return &core.Result{Config: c}, nil
					})})
				t.Cleanup(e.Close)
				read(newJob(e, "queued", "", cfg, SubmitOptions{}))
				j := submit(t, e, cfg, SubmitOptions{})
				for s := 0; s <= n; s++ {
					<-at
					read(j)
					if s < n {
						next <- struct{}{}
					}
				}
				waitDone(t, j)
				return j
			}},
		{"resumed", []row{{0, 0, n, 0, 0}, {0.5, 1, n, 0, 0}, {0.75, 2, n, 1, 0}, {1, 3, n, 2, 0}},
			func(t *testing.T, read func(*Job)) *Job {
				sim, err := core.NewSimulation(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < 2; s++ {
					if err := sim.Step(); err != nil {
						t.Fatal(err)
					}
				}
				e := New(Options{Shards: 1})
				t.Cleanup(e.Close)
				read(newJob(e, "queued", "", cfg, SubmitOptions{}))
				j := submit(t, e, cfg, SubmitOptions{Snapshot: sim.Snapshot()})
				follow(j, read)
				if st := j.Status(); st.ResumedFrom != 2 {
					t.Errorf("resumed from %d, want 2", st.ResumedFrom)
				}
				return j
			}},
		{"ensemble", []row{{0, 0, n, 0, 0}, {1.0 / 3, 0, n, 0, 1}, {2.0 / 3, 0, n, 0, 2}, {1, 0, n, 0, 3}, {1, 3, n, 0, 3}},
			func(t *testing.T, read func(*Job)) *Job {
				e := New(Options{Shards: 1})
				t.Cleanup(e.Close)
				next := make(chan struct{})
				e.runFn = func(ctx context.Context, c core.Config) (*core.Result, error) {
					select {
					case <-next:
						return &core.Result{Config: c}, nil
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
				ens := cfg
				ens.Replicas = 3
				read(newJob(e, "queued", "", ens, SubmitOptions{}))
				j := submit(t, e, ens, SubmitOptions{})
				read(j)
				for r := 1; r <= ens.Replicas; r++ {
					next <- struct{}{}
					for deadline := time.Now().Add(10 * time.Second); j.Status().ReplicasDone < r; {
						if time.Now().After(deadline) {
							t.Fatalf("replica %d never merged", r)
						}
						time.Sleep(100 * time.Microsecond)
					}
					read(j)
				}
				waitDone(t, j)
				return j
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []row
			read := func(j *Job) {
				v := viewOf(j.Status())
				r := row{v.Progress, v.Step, v.Steps, v.StepsDone, v.ReplicasDone}
				if len(got) == 0 || got[len(got)-1] != r {
					got = append(got, r)
				}
			}
			j := tc.run(t, read)
			if st := j.Status(); st.State != StateDone {
				t.Fatalf("state %v, err %v", st.State, st.Err)
			}
			read(j)
			i := 0
			for _, r := range got {
				for i < len(tc.rows) && tc.rows[i] != r {
					i++
				}
				if i == len(tc.rows) {
					t.Fatalf("reads %+v: %+v is not one of the rows %+v in order", got, r, tc.rows)
				}
			}
			if i != len(tc.rows)-1 {
				t.Errorf("reads %+v end before the last row %+v", got, tc.rows[len(tc.rows)-1])
			}
		})
	}
}
