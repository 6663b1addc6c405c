// Command neutral-serve runs the neutral simulation service: a long-lived
// HTTP/JSON API that queues, schedules, caches and streams neutral runs
// (see internal/service).
//
// Usage:
//
//	neutral-serve -addr :8080 -shards 4 -queue-depth 64 -cache 128
//
// Submit a job and follow it:
//
//	curl -s -X POST localhost:8080/v1/jobs -d '{"problem":"csp","particles":100000}'
//	curl -s localhost:8080/v1/jobs/job-000001/result?wait=true
//	curl -N localhost:8080/v1/jobs/job-000001/stream
//
// A result carries its per-cell tally (keep_cells) as the runs of non-zero
// cells, "runs":{"n","start","end","vals"}: run r holds cells
// [start[r], end[r]), whose values lie end to end in vals, and every other of
// the n cells is zero. These are the bytes the blob store keeps;
// service.ResultView decodes them as they are, and Cells.Dense gives the mesh.
//
// Running a cluster (see internal/fleet): one coordinator dispatches job
// shards to worker processes under heartbeat-renewed leases, rescheduling
// from the last pulled checkpoint when a worker dies:
//
//	neutral-serve -addr :8080 -fleet -lease 10s            # coordinator
//	neutral-serve -addr :8081 -worker -join http://localhost:8080
//	neutral-serve -addr :8082 -worker -join http://localhost:8080
//
// Production hardening: tenant keys (bearer auth + per-tenant rate limits
// and fair-share queueing; 429/503 responses carry Retry-After), a blob
// store holding all durable state (checkpoints, persisted results, pulled
// shard snapshots) so workers and the coordinator are stateless and a
// restarted coordinator resumes every in-flight shard from the store, and
// request-body caps answered with 413:
//
//	neutral-serve -addr :8080 -fleet -keys keys.json -blob /var/lib/neutral/blob
//	neutral-serve -addr :8081 -worker -join http://localhost:8080 -fleet-key SECRET
//	curl -H 'Authorization: Bearer ci-secret' ...
//
// Observability:
//
//	curl -s localhost:8080/metrics                     # Prometheus text exposition
//	curl -s localhost:8080/v1/fleet/workers            # fleet registry (coordinator)
//	curl -s localhost:8080/v1/jobs/job-000001/trace    # Chrome trace-event JSON
//	neutral-serve -pprof                               # mounts /debug/pprof/*
//	neutral-serve -log-json                            # JSON structured request logs
//
// The server drains gracefully on SIGINT/SIGTERM: in-flight HTTP requests
// get a shutdown window, a worker leaves its fleet and checkpoints its
// in-flight shards to the blob store, then every queued and
// running simulation is canceled through its context.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/scene"
	"repro/internal/service"
	"repro/internal/service/blob"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "neutral-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		shards     = flag.Int("shards", 0, "workers popping the job queue (0 = min(4, GOMAXPROCS))")
		queueDepth = flag.Int("queue-depth", 0, "admitted backlog per worker: the queue holds shards × this (0 = 64)")
		cacheSize  = flag.Int("cache", 0, "result cache entries (0 = 128, negative disables)")
		threads    = flag.Int("threads-per-job", 0, "solver threads per job (0 = GOMAXPROCS/shards)")
		sceneFile  = flag.String("scene", "", "JSON scene file served as the default problem for submissions that name neither a problem nor an inline scene")
		drain      = flag.Duration("drain", 10*time.Second, "graceful shutdown window")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON instead of logfmt text")
		heartbeat  = flag.Duration("sse-heartbeat", 0, "SSE keepalive comment interval (0 = 15s)")

		fleetOn   = flag.Bool("fleet", false, "act as fleet coordinator: dispatch eligible jobs to joined workers, degrade to local execution when none are reachable")
		workerOn  = flag.Bool("worker", false, "act as fleet worker: join the coordinator at -join and accept dispatched shards")
		join      = flag.String("join", "", "coordinator base URL a -worker registers with (e.g. http://host:8080)")
		advertise = flag.String("advertise", "", "URL this worker's API is reachable at from the coordinator (default derived from -addr)")
		name      = flag.String("name", "", "fleet-unique worker name (default derived from the advertise URL)")
		lease     = flag.Duration("lease", 0, "coordinator shard-lease TTL; a worker silent this long has its shards rescheduled. It also paces the coordinator's retries of worker requests: TTL/200 doubling to TTL/5, 5 attempts (0 = 10s)")
		chaosSpec = flag.String("chaos", "", "deterministic fault injection on fleet HTTP traffic, e.g. drop=0.1,delay=0.05:200ms,err500=0.02,partial=0.01,seed=42")

		keysFile = flag.String("keys", "", "JSON tenant key file ({\"tenants\":[{\"name\":...,\"key\":...,\"rate\":...,\"burst\":...}]}); enables bearer-token auth and per-tenant rate limits")
		blobSpec = flag.String("blob", "", "blob store for checkpoints and persisted results: 'mem' or a directory path (empty = no durability); resubmitting physics found here resumes or serves it")
		fleetKey = flag.String("fleet-key", "", "bearer key this process presents on fleet traffic (worker->coordinator and coordinator->worker requests)")
		maxBody  = flag.Int64("max-body", 0, "request body cap in bytes on decoding endpoints, answered 413 beyond it (0 = 32 MiB)")
	)
	flag.Parse()

	// Only 0 keeps a number flag's documented meaning: refuse the rest before listening.
	if *threads > core.MaxThreads {
		return fmt.Errorf("-threads-per-job %d out of range [0, %d]", *threads, core.MaxThreads)
	}
	names := []string{"shards", "queue-depth", "threads-per-job", "max-body", "lease", "sse-heartbeat", "drain"}
	for i, v := range []int64{int64(*shards), int64(*queueDepth), int64(*threads), *maxBody, int64(*lease), int64(*heartbeat), int64(*drain)} {
		if v < 0 {
			return fmt.Errorf("-%s %v is negative", names[i], flag.Lookup(names[i]).Value)
		}
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *logJSON {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}

	if *workerOn && *fleetOn {
		return errors.New("-worker and -fleet are mutually exclusive roles")
	}
	if *workerOn && *join == "" {
		return errors.New("-worker requires -join")
	}
	chaos, err := fleet.ParseChaos(*chaosSpec)
	if err != nil {
		return err
	}

	// Fail fast on an unloadable default scene rather than rejecting every
	// problem-less submission at runtime.
	var defaultScene *scene.Scene
	if *sceneFile != "" {
		if defaultScene, err = scene.LoadFile(*sceneFile); err != nil {
			return err
		}
	}

	// The blob store is the durability tier: checkpoints, persisted
	// results, and (on a coordinator) pulled shard snapshots. Empty means
	// no durability.
	var blobs blob.Store
	switch {
	case *blobSpec == "mem":
		blobs = blob.NewMem()
	case *blobSpec != "":
		if blobs, err = blob.NewFS(*blobSpec); err != nil {
			return fmt.Errorf("blob store: %w", err)
		}
		// Fail fast on an unwritable directory: checkpoint and result
		// writes are best-effort, so the engine would run without
		// durability, which is worse than not starting.
		probe, err := os.CreateTemp(*blobSpec, ".probe-*")
		if err != nil {
			return fmt.Errorf("blob store not writable: %w", err)
		}
		probe.Close()
		os.Remove(probe.Name())
	}

	// Tenant keys come from the key file, never argv, where any local user
	// could read them; a key file turns authentication on for the whole API.
	var auth *service.Auth
	if *keysFile != "" {
		tenants, err := service.LoadKeys(*keysFile)
		if err != nil {
			return err
		}
		if auth, err = service.NewAuth(tenants); err != nil {
			return err
		}
	}

	// In either fleet role the engine and the fleet layer share one
	// registry, so a single /metrics scrape carries the neutral_* and
	// fleet_* families together. The coordinator keeps no store of its own:
	// its engine files every checkpoint it pulls.
	var registry *telemetry.Registry
	var coordinator *fleet.Coordinator
	var mounts map[string]http.Handler
	if *fleetOn {
		registry = telemetry.NewRegistry()
		// No whole-request timeout: it would cut down the SSE watches.
		// Dialing and the response-header wait are bounded instead.
		base := &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			ResponseHeaderTimeout: 10 * time.Second,
		}
		coordinator = fleet.NewCoordinator(fleet.Options{
			LeaseTTL: *lease,
			Client:   fleetClient(base, 0, *fleetKey, chaos),
			Logger:   logger,
			Registry: registry,
		})
		defer coordinator.Close()
		mounts = coordinator.Routes()
	}

	opts := service.Options{
		Shards:        *shards,
		QueueDepth:    *queueDepth,
		CacheEntries:  *cacheSize,
		ThreadsPerJob: *threads,
		Blobs:         blobs,
		Registry:      registry,
	}
	if coordinator != nil {
		opts.Remote = coordinator
	}
	engine := service.New(opts)
	srv := &http.Server{
		Addr: *addr,
		Handler: service.NewServerWith(engine, service.ServerOptions{
			Logger:       logger,
			Pprof:        *pprofOn,
			Heartbeat:    *heartbeat,
			Mounts:       mounts,
			Auth:         auth,
			MaxBodyBytes: *maxBody,
			DefaultScene: defaultScene,
		}),
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("neutral-serve listening",
			slog.String("addr", *addr),
			slog.Int("shards", engine.Stats().Shards),
			slog.String("role", role(*fleetOn, *workerOn)),
			slog.Bool("pprof", *pprofOn))
		errc <- srv.ListenAndServe()
	}()

	// A worker joins its coordinator and heartbeats until shutdown; the
	// agent failing hard (bad flags, unreachable coordinator after the
	// retry budget) takes the process down rather than serving silently
	// outside the fleet.
	agentErr := make(chan error, 1)
	agentDone := make(chan struct{})
	close(agentDone)
	if *workerOn {
		self := *advertise
		if self == "" {
			if self, err = deriveAdvertise(*addr); err != nil {
				return err
			}
		}
		wname := *name
		if wname == "" {
			wname = strings.TrimPrefix(strings.TrimPrefix(self, "http://"), "https://")
		}
		agent, err := fleet.NewAgent(fleet.AgentOptions{
			Coordinator: strings.TrimSuffix(*join, "/"),
			Self:        self,
			Name:        wname,
			Engine:      engine,
			// The agent only does short POSTs, so a whole-request timeout
			// is safe.
			Client: fleetClient(http.DefaultTransport, 10*time.Second, *fleetKey, chaos),
			Logger: logger,
		})
		if err != nil {
			return err
		}
		agentDone = make(chan struct{})
		go func() {
			defer close(agentDone)
			if err := agent.Run(ctx); err != nil && ctx.Err() == nil {
				agentErr <- err
			}
		}()
	}

	select {
	case err := <-errc:
		engine.Close()
		return err
	case err := <-agentErr:
		engine.Close()
		return err
	case <-ctx.Done():
	}

	logger.Info("shutting down", slog.Duration("drain", *drain))
	// ctx is already done, so a worker's agent has begun leaving the
	// fleet; wait for the goodbye to land (it has its own 2s timeout) or
	// the coordinator would only notice this worker's death after a lease
	// TTL of silence. The coordinator reschedules its shards from the
	// checkpoints it pulled while this drain runs.
	select {
	case <-agentDone:
	case <-time.After(3 * time.Second):
		logger.Warn("fleet: agent did not finish leaving before drain")
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = srv.Shutdown(shutdownCtx)
	if n := engine.CheckpointInFlight(); n > 0 {
		logger.Info("checkpointed in-flight jobs", slog.Int("count", n))
	}
	engine.Close() // cancels every queued and in-flight simulation
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	logger.Info("bye")
	return nil
}

// fleetClient builds one fleet role's HTTP client, its transport chain built
// once: base, then the bearer key when key is set (fleet traffic
// authenticates like any other client), then the fault injector when chaos
// is set.
func fleetClient(base http.RoundTripper, timeout time.Duration, key string, chaos *fleet.Chaos) *http.Client {
	rt := base
	if key != "" {
		rt = &authTransport{key: key, base: rt}
	}
	if chaos != nil {
		chaos.Base = rt
		rt = chaos
	}
	return &http.Client{Timeout: timeout, Transport: rt}
}

// authTransport adds the fleet bearer key to every outgoing request, so
// fleet traffic passes the same tenancy middleware as any client.
type authTransport struct {
	key  string
	base http.RoundTripper
}

func (t *authTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set("Authorization", "Bearer "+t.key)
	return t.base.RoundTrip(r)
}

// role names the process's fleet role for the startup log line.
func role(coordinator, worker bool) string {
	switch {
	case coordinator:
		return "coordinator"
	case worker:
		return "worker"
	default:
		return "standalone"
	}
}

// deriveAdvertise guesses the worker's reachable URL from its listen
// address: loopback for a port-only address, the literal host otherwise.
func deriveAdvertise(addr string) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("cannot derive -advertise from -addr %q: %w", addr, err)
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port), nil
}
