package service

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

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
			ops[i] = rng.Intn(4)
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
					j.setProgress(core.Progress{Step: steps, Steps: len(ops)})
				case 3:
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
