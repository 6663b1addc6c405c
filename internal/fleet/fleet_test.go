package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// fastConfig is a small run at whatever thread budget the executing engine
// gives it: results do not depend on it, so remote and local executions of
// the same config must agree to the last bit.
func fastConfig(seed uint64) core.Config {
	cfg := core.Default(mesh.CSP)
	cfg.NX, cfg.NY = 32, 32
	cfg.Particles = 300
	cfg.Steps = 4
	cfg.Seed = seed
	cfg.KeepCells = true
	return cfg
}

// slowConfig outlasts several of the worker's 100 ms SSE flushes at one
// thread (~0.4 s of solve), leaving room to kill a worker, steal a lease or
// announce a departure mid-run — on the run's own length: checkpoints are
// spaced by their cost and add next to nothing to it. A csp population decays,
// so a run's work is set by particles × mesh resolution, and steps only divide
// it: the finer mesh makes it long, the quarter timestep and 80 steps make the
// pieces small (several boundaries reached before the first flush, none over
// ~40 ms) without a larger bank to snapshot. One thread, for its duration
// alone (results do not depend on it): with a many-core budget the run would
// be over before the kill or the cancel lands.
func slowConfig() core.Config {
	cfg := core.Default(mesh.CSP)
	cfg.NX, cfg.NY = 256, 256
	cfg.Particles = 20000
	cfg.Timestep /= 4
	cfg.Steps = 80
	cfg.Threads = 1
	cfg.Seed = 42
	cfg.KeepCells = true
	return cfg
}

// localResult runs cfg on a plain fleet-less engine — the bit-exactness
// reference every fleet execution is pinned against.
func localResult(t *testing.T, cfg core.Config) *core.Result {
	t.Helper()
	e := service.New(service.Options{Shards: 1})
	defer e.Close()
	j, err := e.Submit(cfg)
	if err != nil {
		t.Fatalf("local submit: %v", err)
	}
	<-j.Done()
	res, err := j.Result()
	if err != nil {
		t.Fatalf("local result: %v", err)
	}
	return res
}

// assertSamePhysics pins a fleet result to the local reference bit for
// bit: tally, per-cell map, full counter vector, conservation audit.
func assertSamePhysics(t *testing.T, got, want *core.Result) {
	t.Helper()
	if got.TallyTotal != want.TallyTotal {
		t.Errorf("TallyTotal = %x, want %x", got.TallyTotal, want.TallyTotal)
	}
	if !reflect.DeepEqual(got.Cells, want.Cells) {
		t.Error("per-cell tallies differ")
	}
	if got.Counter != want.Counter {
		t.Errorf("counters differ:\n got %+v\nwant %+v", got.Counter, want.Counter)
	}
	if got.Conservation.RelativeError != want.Conservation.RelativeError {
		t.Errorf("conservation error = %x, want %x",
			got.Conservation.RelativeError, want.Conservation.RelativeError)
	}
	if got.Leakage != want.Leakage {
		t.Errorf("leakage differs:\n got %+v\nwant %+v", got.Leakage, want.Leakage)
	}
}

// clusterWorker is one in-process worker: a real engine behind a real
// HTTP server, with a controllable heartbeat loop standing in for the
// Agent so tests can stop beats (lost heartbeat) or crash the process.
type clusterWorker struct {
	name     string
	engine   *service.Engine
	srv      *httptest.Server
	stopBeat chan struct{}
	beatDone chan struct{}
}

type cluster struct {
	t      *testing.T
	coord  *Coordinator
	engine *service.Engine // coordinator-side engine, Remote wired
	srv    *httptest.Server
}

// newCluster builds a coordinator (engine + HTTP server + fleet control
// plane) with the given options; add workers with addWorker.
func newCluster(t *testing.T, opts Options) *cluster {
	t.Helper()
	return newClusterWith(t, opts, service.Options{Shards: 2})
}

// newClusterWith is newCluster with the coordinator-side engine's options
// (Registry and Remote are filled in).
func newClusterWith(t *testing.T, opts Options, eopts service.Options) *cluster {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = 2 * time.Second
	}
	coord := NewCoordinator(opts)
	t.Cleanup(coord.Close)
	eopts.Registry, eopts.Remote = opts.Registry, coord
	engine := service.New(eopts)
	t.Cleanup(engine.Close)
	srv := httptest.NewServer(service.NewServerWith(engine, service.ServerOptions{
		Mounts: coord.Routes(),
	}))
	t.Cleanup(srv.Close)
	return &cluster{t: t, coord: coord, engine: engine, srv: srv}
}

func (c *cluster) postJSON(path string, in, out any) error {
	body, _ := json.Marshal(in)
	resp, err := http.Post(c.srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// addWorker boots a worker engine+server, registers it, and starts its
// heartbeat loop.
func (c *cluster) addWorker(name string) *clusterWorker {
	c.t.Helper()
	return c.addWorkerWith(name, service.Options{Shards: 1})
}

// addWorkerWith is addWorker with the worker engine's options.
func (c *cluster) addWorkerWith(name string, eopts service.Options) *clusterWorker {
	c.t.Helper()
	engine := service.New(eopts)
	srv := httptest.NewServer(service.NewServer(engine))
	w := &clusterWorker{
		name:     name,
		engine:   engine,
		srv:      srv,
		stopBeat: make(chan struct{}),
		beatDone: make(chan struct{}),
	}
	if err := c.postJSON("/v1/fleet/register", registerRequest{Worker: name, URL: srv.URL}, nil); err != nil {
		c.t.Fatalf("register %s: %v", name, err)
	}
	go func() {
		defer close(w.beatDone)
		t := time.NewTicker(40 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stopBeat:
				return
			case <-t.C:
				var resp heartbeatResponse
				if err := c.postJSON("/v1/fleet/heartbeat", heartbeatRequest{Worker: name}, &resp); err == nil {
					for _, id := range resp.Cancel {
						engine.Cancel(id)
					}
				}
			}
		}
	}()
	c.t.Cleanup(func() { w.silence(); engine.Close(); srv.Close() })
	return w
}

// silence stops the worker's heartbeats (idempotent).
func (w *clusterWorker) silence() {
	select {
	case <-w.stopBeat:
	default:
		close(w.stopBeat)
	}
	<-w.beatDone
}

// crash simulates a SIGKILL: beats stop, live connections are severed,
// the listener closes, the engine dies. No goodbye.
func (w *clusterWorker) crash() {
	w.silence()
	w.srv.CloseClientConnections()
	w.srv.Close()
	w.engine.Close()
}

func waitDone(t *testing.T, j *service.Job, timeout time.Duration) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(timeout):
		t.Fatal("job did not finish in time")
	}
}

// TestFleetRunsShardRemotely pins the basic dispatch path: the shard runs
// on a worker, the job view names it, and the physics is bit-identical to
// a local run.
func TestFleetRunsShardRemotely(t *testing.T) {
	c := newCluster(t, Options{})
	w := c.addWorker("w1")
	cfg := fastConfig(1)

	j, err := c.engine.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 30*time.Second)
	res, err := j.Result()
	if err != nil {
		t.Fatalf("fleet job failed: %v", err)
	}
	st := j.Status()
	if st.Worker != "w1" {
		t.Errorf("assigned worker = %q, want w1", st.Worker)
	}
	if st.Reschedules != 0 {
		t.Errorf("reschedules = %d, want 0", st.Reschedules)
	}
	if len(st.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", st.Warnings)
	}
	assertSamePhysics(t, res, localResult(t, cfg))
	if got := c.coord.metrics.dispatches.With("done").Value(); got < 1 {
		t.Errorf("fleet_dispatches_total{outcome=done} = %v, want >= 1", got)
	}
	// The worker really ran it: its engine completed one job.
	if runs := w.engine.Stats().Runs; runs != 1 {
		t.Errorf("worker runs = %d, want 1", runs)
	}
}

// TestFinishedShardDropsWorkerCheckpoint: a shard's worker-side job keeps its
// checkpoint past done — the coordinator may still pull it — but only until
// its result is fetched, the last request of the attempt. So when RunShard has
// returned, the worker holds no checkpoint and /snapshot is a 404.
func TestFinishedShardDropsWorkerCheckpoint(t *testing.T) {
	c := newCluster(t, Options{})
	w := c.addWorker("w1")
	cfg := fastConfig(3)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	pulled := 0
	res, err := c.coord.RunShard(context.Background(), cfg, nil, func(u service.RemoteUpdate) {
		if u.Snapshot != nil {
			pulled++
		}
	})
	if err != nil || res == nil {
		t.Fatalf("RunShard: %v", err)
	}
	if pulled == 0 {
		t.Fatal("the coordinator pulled no checkpoint; nothing was retained to drop")
	}
	jobs := w.engine.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("worker holds %d jobs, want 1", len(jobs))
	}
	if data, _ := jobs[0].Snapshot(); data != nil {
		t.Fatalf("finished shard still pins a %d-byte checkpoint on its worker", len(data))
	}
	resp, err := http.Get(w.srv.URL + "/v1/jobs/" + jobs[0].ID() + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("snapshot of a served shard: status %d, want 404", resp.StatusCode)
	}
}

// TestFleetWorkerRunsItsOwnThreadBudget: how a job is executed is decided
// where it is solved. A request that names no thread count travels without
// one and runs on the worker's budget, not the coordinator's; a count the
// client did name travels with it.
func TestFleetWorkerRunsItsOwnThreadBudget(t *testing.T) {
	c := newClusterWith(t, Options{}, service.Options{Shards: 2, ThreadsPerJob: 1})
	w := c.addWorkerWith("w1", service.Options{Shards: 1, ThreadsPerJob: 2})
	for i, tc := range []struct{ requested, want int }{{0, 2}, {3, 3}} {
		cfg := fastConfig(uint64(100 + i))
		cfg.Threads = tc.requested
		j, err := c.engine.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j, 30*time.Second)
		if _, err := j.Result(); err != nil {
			t.Fatalf("fleet job failed: %v", err)
		}
		jobs := w.engine.Jobs()
		if len(jobs) != i+1 {
			t.Fatalf("worker holds %d jobs after %d dispatches", len(jobs), i+1)
		}
		res, err := jobs[i].Result()
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.WorkerBusy); got != tc.want {
			t.Errorf("threads requested %d: the worker solved on %d threads, want %d", tc.requested, got, tc.want)
		}
	}
}

// TestEnsembleAcrossFleet fans ensemble replicas across two workers and
// pins the merged statistics against the single-process reference.
func TestEnsembleAcrossFleet(t *testing.T) {
	c := newCluster(t, Options{})
	c.addWorker("w1")
	c.addWorker("w2")
	cfg := fastConfig(7)
	cfg.Replicas = 3

	j, err := c.engine.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 60*time.Second)
	if _, err := j.Result(); err != nil {
		t.Fatalf("ensemble failed: %v", err)
	}
	ens := j.Ensemble()
	if ens == nil {
		t.Fatal("no ensemble statistics")
	}

	// Reference: same ensemble, no fleet.
	ref := service.New(service.Options{Shards: 2})
	defer ref.Close()
	rj, err := ref.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, rj, 60*time.Second)
	rens := rj.Ensemble()
	if rens == nil {
		t.Fatal("no reference ensemble")
	}
	if ens.MeanTotal != rens.MeanTotal {
		t.Errorf("MeanTotal = %x, want %x", ens.MeanTotal, rens.MeanTotal)
	}
	if !reflect.DeepEqual(ens.Totals, rens.Totals) {
		t.Errorf("replica totals differ: %v vs %v", ens.Totals, rens.Totals)
	}
	if !reflect.DeepEqual(ens.RelErr, rens.RelErr) {
		t.Error("per-cell relative errors differ")
	}
	for _, rv := range j.Replicas() {
		if rv.Worker == "" {
			t.Errorf("replica %d has no worker attribution", rv.Replica)
		}
	}
}

// TestWorkerCrashReschedulesFromCheckpoint is the flagship robustness pin:
// kill a worker mid-run and the shard must finish on the survivor, resumed
// from the pulled checkpoint, with physics bit-identical to an
// uninterrupted single-process run.
func TestWorkerCrashReschedulesFromCheckpoint(t *testing.T) {
	c := newCluster(t, Options{LeaseTTL: time.Second})
	w1 := c.addWorker("w1")
	w2 := c.addWorker("w2")
	cfg := slowConfig()

	j, err := c.engine.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the coordinator has forwarded at least two remote steps
	// (so it has pulled a checkpoint), then kill the assigned worker.
	var victim *clusterWorker
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := j.Status()
		if st.StepsDone >= 2 && st.Worker != "" {
			victim = w1
			if st.Worker == "w2" {
				victim = w2
			}
			break
		}
		if st.State.Terminal() {
			t.Fatal("job finished before the crash could be injected; enlarge slowConfig")
		}
		if time.Now().After(deadline) {
			t.Fatal("no remote steps observed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	victim.crash()

	waitDone(t, j, 120*time.Second)
	res, err := j.Result()
	if err != nil {
		t.Fatalf("job failed after crash: %v", err)
	}
	st := j.Status()
	if st.Reschedules < 1 {
		t.Errorf("reschedules = %d, want >= 1", st.Reschedules)
	}
	if st.Worker == victim.name {
		t.Errorf("final worker is still the victim %q", victim.name)
	}
	if got := c.coord.metrics.reschedules.Value(); got < 1 {
		t.Errorf("fleet_reschedules_total = %v, want >= 1", got)
	}
	if got := c.coord.metrics.snapshotPulls.Value(); got < 1 {
		t.Errorf("fleet_snapshot_pulls_total = %v, want >= 1", got)
	}
	// The survivor resumed from the checkpoint rather than restarting.
	survivor := w1
	if victim == w1 {
		survivor = w2
	}
	resumed := false
	for _, wj := range survivor.engine.Jobs() {
		if wj.Status().ResumedFrom >= 0 {
			resumed = true
		}
	}
	if !resumed {
		t.Error("rescheduled shard did not resume from a checkpoint")
	}
	assertSamePhysics(t, res, localResult(t, cfg))
}

// TestLostHeartbeatExpiresLease registers a stalled worker — accepts the
// shard, streams nothing, beats never — and pins the janitor path: the
// lease expires, the shard reschedules onto a healthy worker, and the
// stalled worker's orphan job is queued for cancellation.
func TestLostHeartbeatExpiresLease(t *testing.T) {
	c := newCluster(t, Options{LeaseTTL: 200 * time.Millisecond})
	// "a-stall" sorts before "b-real", so the round-robin cursor (at 0)
	// deterministically dispatches the first shard to the stalled worker.
	stallJob := `{"id":"job-000001","state":"running","progress":0,"step":0,"steps":4,"submitted":"2026-01-01T00:00:00Z"}`
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(stallJob))
	})
	mux.HandleFunc("GET /v1/jobs/job-000001/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		<-r.Context().Done() // stream forever, send nothing
	})
	mux.HandleFunc("GET /v1/jobs/job-000001", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(stallJob))
	})
	stall := httptest.NewServer(mux)
	defer stall.Close()
	if err := c.postJSON("/v1/fleet/register", registerRequest{Worker: "a-stall", URL: stall.URL}, nil); err != nil {
		t.Fatal(err)
	}
	c.addWorker("b-real")

	cfg := fastConfig(3)
	j, err := c.engine.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 60*time.Second)
	res, err := j.Result()
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	st := j.Status()
	if st.Reschedules < 1 {
		t.Errorf("reschedules = %d, want >= 1", st.Reschedules)
	}
	if st.Worker != "b-real" {
		t.Errorf("final worker = %q, want b-real", st.Worker)
	}
	if got := c.coord.metrics.leaseExpirations.Value(); got < 1 {
		t.Errorf("fleet_lease_expirations_total = %v, want >= 1", got)
	}
	assertSamePhysics(t, res, localResult(t, cfg))

	// The orphaned remote job is delivered for cancellation on the
	// stalled worker's next heartbeat — the stale-shard protocol.
	var hb heartbeatResponse
	if err := c.postJSON("/v1/fleet/heartbeat", heartbeatRequest{Worker: "a-stall"}, &hb); err != nil {
		t.Fatal(err)
	}
	if len(hb.Cancel) != 1 || hb.Cancel[0] != "job-000001" {
		t.Errorf("heartbeat cancel list = %v, want [job-000001]", hb.Cancel)
	}
}

// TestSilentWorkerLosesEveryLease pins the one liveness clock: a stalled
// worker holding two shards loses both in one janitor pass, both orphans are
// delivered for cancellation on its next heartbeat, and both shards finish
// on the healthy worker, bit-identical to local runs.
func TestSilentWorkerLosesEveryLease(t *testing.T) {
	c := newCluster(t, Options{LeaseTTL: 500 * time.Millisecond})
	// The stalled worker accepts every shard, streams nothing, beats never.
	const view = `{"id":%q,"state":"running","progress":0,"step":0,"steps":4,"submitted":"2026-01-01T00:00:00Z"}`
	var seq atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, view, fmt.Sprintf("job-%06d", seq.Add(1)))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, view, r.PathValue("id"))
	})
	stall := httptest.NewServer(mux)
	defer stall.Close()
	if err := c.postJSON("/v1/fleet/register", registerRequest{Worker: "a-stall", URL: stall.URL}, nil); err != nil {
		t.Fatal(err)
	}

	// The stalled worker is the only one registered, so it takes both
	// shards; the healthy one joins once it holds them.
	cfgs := []core.Config{fastConfig(3), fastConfig(4)}
	var jobs []*service.Job
	for _, cfg := range cfgs {
		j, err := c.engine.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	deadline := time.Now().Add(30 * time.Second)
	for c.coord.countLeases() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the stalled worker never held both shards")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.addWorker("b-real")

	// The janitor drops a worker's leases under the lock and counts them
	// after it, so once a loss is counted, every lease lost with it is gone.
	for c.coord.metrics.leaseExpirations.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the stalled worker lost no lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.coord.mu.Lock()
	stalled := c.coord.workers["a-stall"]
	held, queued, suspect := len(stalled.leases), len(stalled.stale), stalled.suspect
	c.coord.mu.Unlock()
	if held != 0 || queued != 2 || !suspect {
		t.Errorf("after the first loss: %d leases held, %d jobs queued for cancel, suspect %v; want 0, 2, true",
			held, queued, suspect)
	}

	for i, j := range jobs {
		waitDone(t, j, 60*time.Second)
		res, err := j.Result()
		if err != nil {
			t.Fatalf("job %d failed: %v", i, err)
		}
		if st := j.Status(); st.Worker != "b-real" || st.Reschedules < 1 {
			t.Errorf("job %d: final worker %q after %d reschedules, want b-real after >= 1", i, st.Worker, st.Reschedules)
		}
		assertSamePhysics(t, res, localResult(t, cfgs[i]))
	}
	if got := c.coord.metrics.leaseExpirations.Value(); got != 2 {
		t.Errorf("fleet_lease_expirations_total = %v, want 2", got)
	}
	var hb heartbeatResponse
	if err := c.postJSON("/v1/fleet/heartbeat", heartbeatRequest{Worker: "a-stall"}, &hb); err != nil {
		t.Fatal(err)
	}
	slices.Sort(hb.Cancel)
	if want := []string{"job-000001", "job-000002"}; !slices.Equal(hb.Cancel, want) {
		t.Errorf("heartbeat cancel list = %v, want %v", hb.Cancel, want)
	}
}

// TestLeaseOnReplacedWorkerIsLost: a worker that re-registers under its name
// between dispatch picking it and the lease's grant is a new registry entry,
// and the picked one is no janitor's to visit, so a lease on it would never be
// lost however long its stream stalls. The grant is refused instead: the
// remote job is canceled and the shard reschedules, here onto the new entry.
func TestLeaseOnReplacedWorkerIsLost(t *testing.T) {
	const view = `{"id":%q,"state":%q,"error":%q,"progress":0,"step":0,"steps":4,"submitted":"2026-01-01T00:00:00Z"}`
	c := newCluster(t, Options{LeaseTTL: time.Second})
	var seq atomic.Int64
	var workerURL string
	canceled := make(chan string, 4)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("job-%06d", seq.Add(1))
		if id == "job-000001" {
			// The worker restarts while its acceptance is in flight.
			if err := c.postJSON("/v1/fleet/register", registerRequest{Worker: "w", URL: workerURL}, nil); err != nil {
				t.Error(err)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, view, id, "running", "")
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		if r.PathValue("id") != "job-000001" {
			// Ending the shard as failed spares the script a result document.
			fmt.Fprintf(w, "event: done\ndata: "+view+"\n\n", r.PathValue("id"), "failed", "scripted end")
			return
		}
		w.(http.Flusher).Flush()
		<-r.Context().Done() // the first job streams nothing, ever
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		canceled <- r.PathValue("id")
	})
	worker := httptest.NewServer(mux)
	defer worker.Close()
	workerURL = worker.URL
	if err := c.postJSON("/v1/fleet/register", registerRequest{Worker: "w", URL: workerURL}, nil); err != nil {
		t.Fatal(err)
	}

	cfg := fastConfig(91)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ended := make(chan error, 1)
	go func() {
		_, err := c.coord.RunShard(ctx, cfg, nil, func(service.RemoteUpdate) {})
		ended <- err
	}()
	select {
	case err := <-ended:
		if err == nil || !strings.Contains(err.Error(), "scripted end") {
			t.Errorf("shard ended with %v, want the scripted failure of its second dispatch", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the shard's lease on the replaced worker was never lost")
	}
	select {
	case id := <-canceled:
		if id != "job-000001" {
			t.Errorf("canceled %s, want job-000001", id)
		}
	default:
		t.Error("the remote job behind the refused lease was not canceled")
	}
	if got := c.coord.metrics.reschedules.Value(); got != 1 {
		t.Errorf("fleet_reschedules_total = %v, want 1", got)
	}
}

// TestStreamKeepsWorkerAlive: any line on any of a worker's streams is proof
// of life for the whole worker. A worker that never beats while one of its
// two shards streams steps keeps both leases, the quiet one included, and
// nothing is rescheduled.
func TestStreamKeepsWorkerAlive(t *testing.T) {
	const ttl = 400 * time.Millisecond
	const view = `{"id":%q,"state":%q,"error":%q,"progress":0,"step":0,"steps":8,"submitted":"2026-01-01T00:00:00Z"}`
	var seq, stepsSent atomic.Int64
	finish := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, view, fmt.Sprintf("job-%06d", seq.Add(1)), "running", "")
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		// The first shard steps eight times a TTL; the second stays quiet.
		var steps <-chan time.Time
		if r.PathValue("id") == "job-000001" {
			tick := time.NewTicker(ttl / 8)
			defer tick.Stop()
			steps = tick.C
		}
		for {
			select {
			case <-steps:
				n := stepsSent.Add(1)
				fmt.Fprintf(w, "id: s%dr0\nevent: step\ndata: {\"step\":%d,\"steps\":8}\n\n", n, n-1)
				w.(http.Flusher).Flush()
			case <-finish:
				// Ending the shards as failed spares the script a result document.
				fmt.Fprintf(w, "event: done\ndata: "+view+"\n\n", r.PathValue("id"), "failed", "scripted end")
				return
			case <-r.Context().Done():
				return
			}
		}
	})
	worker := httptest.NewServer(mux)
	defer worker.Close()

	c := newCluster(t, Options{LeaseTTL: ttl})
	if err := c.postJSON("/v1/fleet/register", registerRequest{Worker: "scripted", URL: worker.URL}, nil); err != nil {
		t.Fatal(err)
	}
	ended := make(chan error, 2) // one send per shard
	for seed := uint64(81); seed <= 82; seed++ {
		cfg := fastConfig(seed)
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		go func() {
			_, err := c.coord.RunShard(context.Background(), cfg, nil, func(service.RemoteUpdate) {})
			ended <- err
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for c.coord.countLeases() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the worker never held both shards")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Three TTLs' worth of steps with no heartbeat at all.
	for stepsSent.Load() < 24 {
		if time.Now().After(deadline) {
			t.Fatal("the streaming shard stalled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.coord.metrics.leaseExpirations.Value(); got != 0 {
		t.Errorf("fleet_lease_expirations_total = %v, want 0: the worker's stream proves it alive", got)
	}
	if got := c.coord.countLeases(); got != 2 {
		t.Errorf("%d leases held, want 2: the quiet shard lives as long as its worker", got)
	}
	close(finish)
	for range 2 {
		if err := <-ended; err == nil || !strings.Contains(err.Error(), "scripted end") {
			t.Errorf("shard ended with %v, want the scripted failure", err)
		}
	}
	if got := c.coord.metrics.reschedules.Value(); got != 0 {
		t.Errorf("fleet_reschedules_total = %v, want 0", got)
	}
}

// TestStaleLeaseDuplicateCompletion steals a shard's lease mid-run (the
// expiry race: lease gone, watch not yet cancelled). The completion
// arriving under the dead lease must be discarded as a duplicate, and with
// no healthy worker left the engine must degrade to local execution — with
// a warning, and still bit-identical physics.
func TestStaleLeaseDuplicateCompletion(t *testing.T) {
	c := newCluster(t, Options{})
	w := c.addWorker("w1")
	cfg := slowConfig()

	j, err := c.engine.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the lease, then yank it without cancelling the watch.
	deadline := time.Now().Add(60 * time.Second)
	for c.coord.countLeases() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no lease granted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	w.silence() // no beats: the worker stays suspect after the steal
	c.coord.mu.Lock()
	var stolen *lease
	for l := range c.coord.workers["w1"].leases {
		stolen = l
	}
	c.coord.mu.Unlock()
	c.coord.releaseLease(stolen)
	c.coord.suspectWorker(stolen.worker)

	waitDone(t, j, 120*time.Second)
	res, err := j.Result()
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if got := c.coord.metrics.duplicateCompletions.Value(); got < 1 {
		t.Errorf("fleet_duplicate_completions_total = %v, want >= 1", got)
	}
	st := j.Status()
	degraded := false
	for _, warning := range st.Warnings {
		if warning == "fleet: no workers reachable; degraded to local execution" {
			degraded = true
		}
	}
	if !degraded {
		t.Errorf("no degradation warning on job; warnings = %v", st.Warnings)
	}
	assertSamePhysics(t, res, localResult(t, cfg))
}

// TestGracefulLeaveReschedules: a worker leaving the fleet has its shards
// rescheduled immediately, without waiting out the lease TTL.
func TestGracefulLeaveReschedules(t *testing.T) {
	c := newCluster(t, Options{})
	workers := map[string]*clusterWorker{
		"w1": c.addWorker("w1"),
		"w2": c.addWorker("w2"),
	}
	cfg := slowConfig()

	j, err := c.engine.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var assigned string
	deadline := time.Now().Add(60 * time.Second)
	for {
		if assigned = j.Status().Worker; assigned != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard never assigned")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A real agent stops heartbeating before it announces departure — a
	// beat after leave would deliberately revive the worker.
	workers[assigned].silence()
	if err := c.postJSON("/v1/fleet/leave", heartbeatRequest{Worker: assigned}, nil); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 120*time.Second)
	if _, err := j.Result(); err != nil {
		t.Fatalf("job failed: %v", err)
	}
	st := j.Status()
	if st.Reschedules < 1 {
		t.Errorf("reschedules = %d, want >= 1", st.Reschedules)
	}
	if st.Worker == assigned {
		t.Errorf("final worker %q is the one that left", st.Worker)
	}
	for _, wv := range c.coord.Workers() {
		if wv.Name == assigned && !wv.Departed {
			t.Errorf("worker %s not marked departed", assigned)
		}
	}
}

// TestChaosClusterCompletes runs shards through a deterministically faulty
// transport — drops, 500s, delays, truncations — and pins that retries,
// stream resumes and reschedules still converge on bit-exact physics.
func TestChaosClusterCompletes(t *testing.T) {
	chaos := NewChaos(7)
	chaos.Drop = 0.15
	chaos.Err500 = 0.10
	chaos.Partial = 0.05
	chaos.Delay = 0.05
	chaos.DelayDur = 5 * time.Millisecond
	c := newCluster(t, Options{Client: &http.Client{Transport: chaos}})
	c.addWorker("w1")
	c.addWorker("w2")

	for seed := uint64(1); seed <= 3; seed++ {
		cfg := fastConfig(seed)
		j, err := c.engine.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j, 120*time.Second)
		res, err := j.Result()
		if err != nil {
			t.Fatalf("seed %d: job failed under chaos: %v", seed, err)
		}
		assertSamePhysics(t, res, localResult(t, cfg))
	}
	if got := c.coord.metrics.retries.Value(); got < 1 {
		t.Errorf("fleet_retries_total = %v, want >= 1 under chaos", got)
	}
}

// cutFirstResult is a coordinator transport that delivers the first
// GET /result body it carries cut in half — a clean end of body at half the
// bytes, declared as such — and every other response whole.
type cutFirstResult struct {
	base http.RoundTripper
	cut  atomic.Bool
}

func (c *cutFirstResult) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK || !strings.HasSuffix(req.URL.Path, "/result") ||
		!c.cut.CompareAndSwap(false, true) {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	half := body[:len(body)/2]
	resp.Body = io.NopCloser(bytes.NewReader(half))
	resp.ContentLength = int64(len(half))
	resp.Header.Set("Content-Length", strconv.Itoa(len(half)))
	return resp, nil
}

// TestCutResultTransferRetried: a result body that arrives cut parses as no
// result, and the coordinator parses it inside the retried request — so the
// fetch is made again, not the shard lost, and the result filed is the whole
// one, cell for cell.
func TestCutResultTransferRetried(t *testing.T) {
	base := &http.Transport{}
	t.Cleanup(base.CloseIdleConnections)
	cut := &cutFirstResult{base: base}
	c := newCluster(t, Options{Client: &http.Client{Transport: cut}})
	c.addWorker("w1")
	cfg := fastConfig(5)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := c.coord.RunShard(context.Background(), cfg, nil, func(service.RemoteUpdate) {})
	if err != nil {
		t.Fatalf("RunShard: %v", err)
	}
	if !cut.cut.Load() {
		t.Fatal("no result body was cut")
	}
	if got := c.coord.metrics.retries.Value(); got < 1 {
		t.Errorf("fleet_retries_total = %v, want >= 1 after a cut result", got)
	}
	if got := c.coord.metrics.reschedules.Value(); got != 0 {
		t.Errorf("fleet_reschedules_total = %v, want 0: a cut transfer is retried, not rescheduled", got)
	}
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Result(); !reflect.DeepEqual(got.Cells, want.Cells) || got.TallyTotal != want.TallyTotal {
		t.Error("the filed remote result is not core.Run's")
	}
}

// TestAgentAdoptsNewHeartbeatOnReregister: a worker that re-registers with a
// restarted coordinator beats at the interval that coordinator advertises,
// not the one it first joined with — a shorter lease would otherwise lose
// its shards between beats.
func TestAgentAdoptsNewHeartbeatOnReregister(t *testing.T) {
	const first, second = time.Second, 10 * time.Millisecond
	var registrations atomic.Int64
	beats := make(chan struct{}, 64) // sends never block; only the first few are read
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fleet/register", func(w http.ResponseWriter, r *http.Request) {
		hb := first
		if registrations.Add(1) > 1 {
			hb = second
		}
		fleetJSON(w, http.StatusOK, registerResponse{LeaseTTLMS: (3 * hb).Milliseconds(), HeartbeatMS: hb.Milliseconds()})
	})
	mux.HandleFunc("POST /v1/fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if registrations.Load() == 1 {
			// The coordinator restarted and forgot the worker.
			fleetError(w, http.StatusNotFound, errors.New("unknown worker"))
			return
		}
		select {
		case beats <- struct{}{}:
		default:
		}
		fleetJSON(w, http.StatusOK, heartbeatResponse{})
	})
	mux.HandleFunc("POST /v1/fleet/leave", func(w http.ResponseWriter, r *http.Request) {
		fleetJSON(w, http.StatusOK, map[string]string{"status": "bye"})
	})
	coord := httptest.NewServer(mux)
	defer coord.Close()

	agent, err := NewAgent(AgentOptions{Coordinator: coord.URL, Self: "http://127.0.0.1:1", Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	agentDone := make(chan error, 1)
	go func() { agentDone <- agent.Run(ctx) }()
	defer func() { cancel(); <-agentDone }()

	// The first beat, one old interval in, is refused and the agent
	// re-registers; the beat after that starts the count.
	select {
	case <-beats:
	case <-time.After(30 * time.Second):
		t.Fatal("no heartbeat after re-registering")
	}
	// Four more at the new pace take 40 ms; at the old pace, 4 s.
	timeout := time.After(first / 2)
	for i := 0; i < 4; i++ {
		select {
		case <-beats:
		case <-timeout:
			t.Fatalf("%d heartbeats in %v after re-registering at a %v interval: the agent kept its old pace",
				i+1, first/2, second)
		}
	}
}

// TestAgentLifecycle drives the real Agent: register, heartbeat, stale
// cancel delivery, graceful leave.
func TestAgentLifecycle(t *testing.T) {
	c := newCluster(t, Options{LeaseTTL: 90 * time.Millisecond}) // beats every 30 ms
	engine := service.New(service.Options{Shards: 1})
	defer engine.Close()
	srv := httptest.NewServer(service.NewServer(engine))
	defer srv.Close()

	agent, err := NewAgent(AgentOptions{
		Coordinator: c.srv.URL,
		Self:        srv.URL,
		Name:        "agent-1",
		Engine:      engine,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	agentDone := make(chan error, 1)
	go func() { agentDone <- agent.Run(ctx) }()

	deadline := time.Now().Add(30 * time.Second)
	alive := func() bool {
		for _, w := range c.coord.Workers() {
			if w.Name == "agent-1" && w.Alive {
				return true
			}
		}
		return false
	}
	for !alive() {
		if time.Now().After(deadline) {
			t.Fatal("agent never became alive")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Stale-shard delivery: plant a long job, mark it stale, and the next
	// heartbeat must cancel it on the worker's engine.
	// Four times slowConfig's steps: at one core the heartbeat that carries
	// the cancel queues behind the solver, and the job must not be over
	// before it lands. The job is canceled, so the extra steps never run.
	long := slowConfig()
	long.Steps *= 4
	j, err := engine.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	c.coord.mu.Lock()
	c.coord.workers["agent-1"].stale = append(c.coord.workers["agent-1"].stale, j.ID())
	c.coord.mu.Unlock()
	for !j.Status().State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("stale job never canceled")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := j.Status().State; st != service.StateCanceled {
		t.Errorf("stale job state = %s, want canceled", st)
	}

	cancel()
	select {
	case <-agentDone:
	case <-time.After(10 * time.Second):
		t.Fatal("agent did not exit")
	}
	for _, w := range c.coord.Workers() {
		if w.Name == "agent-1" && !w.Departed {
			t.Error("agent did not leave gracefully")
		}
	}
}
