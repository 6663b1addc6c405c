package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/service/blob"
)

// ckptConfig is a multi-step configuration.
func ckptConfig(steps int) core.Config {
	cfg := core.Default(mesh.CSP)
	cfg.NX, cfg.NY = 128, 128
	cfg.Particles = 400
	cfg.Steps = steps
	return cfg
}

// fsStore opens a filesystem blob store over dir.
func fsStore(t *testing.T, dir string) *blob.FS {
	t.Helper()
	fs, err := blob.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestCheckpointResumeAcrossEngineRestart is the acceptance scenario: an
// engine finds a checkpoint a previous engine life left on disk and resumes
// the job from that boundary instead of re-running it, producing the exact
// result an uninterrupted run would have — and streaming only the remaining
// steps.
func TestCheckpointResumeAcrossEngineRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := ckptConfig(4)

	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// A previous engine's worker checkpointed this job at step 2, then
	// the process died.
	sim, err := core.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	key, cacheable := cfg.Fingerprint()
	if !cacheable {
		t.Fatal("test config must be cacheable")
	}
	ckpt := filepath.Join(dir, "checkpoints", key)
	if err := os.MkdirAll(filepath.Dir(ckpt), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, sim.Snapshot(), 0o644); err != nil {
		t.Fatal(err)
	}

	// The "restarted" engine over the same checkpoint directory. Its one
	// worker first runs another job (another problem, layout, scheme and
	// thread count), so the resume lands in place on a simulation that is
	// already holding something else.
	e := New(Options{Shards: 1, Blobs: fsStore(t, dir)})
	defer e.Close()
	other := core.Default(mesh.Scatter)
	other.NX, other.NY = 64, 64
	other.Particles = 300
	other.Layout, other.Scheme, other.Threads = particle.SoA, core.OverEvents, 3
	if jo, err := e.Submit(other); err != nil {
		t.Fatal(err)
	} else if st := waitDone(t, jo); st.State != StateDone {
		t.Fatalf("first job: state %v, err %v", st.State, st.Err)
	}
	j, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("state %v, err %v", st.State, st.Err)
	}
	if st.ResumedFrom != 2 {
		t.Fatalf("resumed from step %d, want 2", st.ResumedFrom)
	}
	steps := j.Steps()
	if len(steps) != 2 || steps[0].Step != 2 || steps[1].Step != 3 {
		t.Fatalf("streamed steps %+v, want steps 2 and 3 only", steps)
	}
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Counter != want.Counter {
		t.Errorf("resumed counters differ:\nfull    %+v\nresumed %+v", want.Counter, res.Counter)
	}
	if res.TallyTotal != want.TallyTotal {
		t.Errorf("resumed tally %g, want %g", res.TallyTotal, want.TallyTotal)
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint not removed after success: %v", err)
	}
}

// TestCanceledJobResumesFromCheckpoint cancels a running checkpointed job
// and resubmits its physics under another execution strategy (Over Events on
// an SoA bank, after Over Particles on AoS): a checkpoint is filed under the
// job's identity, which has no strategy in it, so the second run must pick up
// from the canceled run's last snapshot, not from scratch — and end on the
// tally of a run that was never interrupted.
func TestCanceledJobResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := ckptConfig(40)
	cfg.NX, cfg.NY = 192, 192
	cfg.Particles = 1500
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	e := New(Options{Shards: 1, Blobs: fsStore(t, dir)})
	defer e.Close()
	j, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Let at least two steps complete, then cancel mid-run.
	deadline := time.Now().Add(20 * time.Second)
	for j.Status().StepsDone < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no steps completed in time")
		}
		select {
		case <-j.Done():
			t.Skip("job finished before it could be canceled; machine too fast for this config")
		case <-time.After(2 * time.Millisecond):
		}
	}
	if err := e.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if st := j.Status(); st.State != StateCanceled {
		t.Fatalf("state %v after cancel", st.State)
	}

	key, _ := cfg.Fingerprint()
	if _, err := os.Stat(filepath.Join(dir, "checkpoints", key)); err != nil {
		t.Fatalf("canceled job left no checkpoint: %v", err)
	}

	cfg.Scheme, cfg.Layout = core.OverEvents, particle.SoA
	j2, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := j2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st := j2.Status()
	if st.State != StateDone {
		t.Fatalf("resubmitted job state %v, err %v", st.State, st.Err)
	}
	if st.ResumedFrom < 1 {
		t.Fatalf("resubmitted job resumed from %d, want >= 1", st.ResumedFrom)
	}
	res, err := j2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Conservation.RelativeError > 1e-9 {
		t.Errorf("resumed run conservation error %.3g", res.Conservation.RelativeError)
	}
	if res.TallyTotal != want.TallyTotal {
		t.Errorf("resumed under another strategy: tally %v, uninterrupted %v", res.TallyTotal, want.TallyTotal)
	}
}

// TestCheckpointOlderFormatDiscarded: a checkpoint in a snapshot format this
// code refuses (a real v5 file, from before the fixed-point tally) found under
// a job's key is discarded and the job runs fresh — never failed, never
// resumed from sums accumulated in another arithmetic.
func TestCheckpointOlderFormatDiscarded(t *testing.T) {
	old, err := os.ReadFile("../core/testdata/snapshot_v5_parent.bin")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ckptConfig(2)
	cfg.NX, cfg.NY, cfg.Particles = 16, 16, 32 // the configuration the file was written under
	if _, err := core.RestoreSimulation(cfg, old); err == nil {
		t.Fatal("the v5 fixture restored; it must be refused for this test to mean anything")
	}
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	key, _ := cfg.Fingerprint()
	ckpt := filepath.Join(dir, "checkpoints", key)
	if err := os.MkdirAll(filepath.Dir(ckpt), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, old, 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(Options{Shards: 1, Blobs: fsStore(t, dir)})
	defer e.Close()
	j, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st := j.Status()
	if st.State != StateDone || st.ResumedFrom >= 0 {
		t.Fatalf("state %v, resumed from %d, err %v; want a fresh, finished run", st.State, st.ResumedFrom, st.Err)
	}
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.TallyTotal != want.TallyTotal || res.Counter != want.Counter {
		t.Errorf("fresh run after the discard differs from a direct run: tally %v vs %v", res.TallyTotal, want.TallyTotal)
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the refused checkpoint is still on disk: %v", err)
	}
}

// TestSubmitBatchPerItemAdmission checks that batch admission is per item:
// queue overflow fails individual items, never the whole batch, and
// accepted items complete.
func TestSubmitBatchPerItemAdmission(t *testing.T) {
	block := make(chan struct{})
	e := New(Options{Shards: 1, QueueDepth: 2})
	defer e.Close()
	e.runFn = func(ctx context.Context, cfg core.Config, p core.ProgressFunc) (*core.Result, error) {
		select {
		case <-block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &core.Result{Config: cfg}, nil
	}

	// Distinct seeds make every config a distinct fingerprint; the first
	// occupies the worker, two queue, the rest overflow.
	cfgs := make([]core.Config, 5)
	for i := range cfgs {
		cfgs[i] = ckptConfig(1)
		cfgs[i].Seed = uint64(1000 + i)
	}
	items := submitAll(e, cfgs)
	accepted, rejected := 0, 0
	for _, it := range items {
		switch {
		case it.Err == nil:
			accepted++
		case errors.Is(it.Err, ErrQueueFull):
			rejected++
		default:
			t.Errorf("unexpected batch error: %v", it.Err)
		}
	}
	// At least QueueDepth items are admitted (more when the worker pops
	// before later pushes land), and a 5-spec batch against depth 2 must
	// overflow at least once — but never fail wholesale.
	if accepted < 2 || rejected < 1 || accepted+rejected != len(cfgs) {
		t.Fatalf("accepted %d, rejected %d of %d", accepted, rejected, len(cfgs))
	}
	close(block)
	for _, it := range items {
		if it.Err == nil {
			<-it.Job.Done()
		}
	}
}
