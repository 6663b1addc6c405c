package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/service"
)

// AgentOptions configures a worker-side fleet agent.
type AgentOptions struct {
	// Coordinator is the coordinator's base URL; Self the URL this
	// worker's job API is reachable at from the coordinator; Name the
	// worker's fleet-unique name.
	Coordinator string
	Self        string
	Name        string
	// Engine is this worker's local engine — the agent cancels stale
	// shards on it when the coordinator says they were rescheduled away.
	Engine *service.Engine
	// Client performs coordinator HTTP requests; nil means a fresh client
	// with a whole-request timeout.
	Client *http.Client
	// Logger receives membership events; nil discards them.
	Logger *slog.Logger
}

// Agent keeps one worker process registered with its coordinator: register
// on start, heartbeat at the coordinator-advertised interval (renewing the
// worker's shard leases), cancel shards the coordinator rescheduled away,
// re-register when the coordinator forgot us, and leave gracefully on
// shutdown.
type Agent struct {
	opts AgentOptions
	log  *slog.Logger
	// join carries registrations: it registers before it knows a lease TTL,
	// so its backoff is fixed, 100ms doubling to 5s, and it knocks until
	// ctx ends — a worker outliving a coordinator restart keeps knocking.
	// once carries heartbeats and the leave, each a single attempt: the
	// ticker is a heartbeat's retry.
	join, once requester
	// beats paces the heartbeats at the interval of the newest registration.
	beats *time.Ticker
}

// NewAgent builds an agent; Run starts its membership loop.
func NewAgent(opts AgentOptions) (*Agent, error) {
	if opts.Coordinator == "" || opts.Self == "" || opts.Name == "" {
		return nil, fmt.Errorf("fleet: agent needs coordinator, self and name")
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	if opts.Client == nil {
		// The agent only ever does short JSON POSTs, so unlike the
		// coordinator's client a whole-request timeout is safe — and it
		// stops a wedged coordinator from hanging a heartbeat forever.
		opts.Client = &http.Client{Timeout: 10 * time.Second}
	}
	return &Agent{
		opts: opts,
		log:  opts.Logger,
		join: requester{client: opts.Client, first: 100 * time.Millisecond, cap: 5 * time.Second},
		once: requester{client: opts.Client, attempts: 1},
	}, nil
}

// Run registers and then heartbeats until ctx ends, at which point the
// agent leaves the fleet gracefully (best effort, on a fresh short
// context). It returns only on ctx cancellation.
func (a *Agent) Run(ctx context.Context) error {
	if err := a.register(ctx); err != nil {
		return err
	}
	defer a.beats.Stop()
	for {
		select {
		case <-ctx.Done():
			a.leave()
			return ctx.Err()
		case <-a.beats.C:
			a.beat(ctx)
		}
	}
}

// register joins the fleet and adopts the coordinator's advertised heartbeat
// interval — on a re-registration too, so a coordinator restarted with a
// shorter lease is beaten at its own pace.
func (a *Agent) register(ctx context.Context) error {
	var resp registerResponse
	err := a.join.do(ctx, http.MethodPost, a.opts.Coordinator+"/v1/fleet/register",
		registerRequest{Worker: a.opts.Name, URL: a.opts.Self}, decode(&resp))
	if err != nil {
		return fmt.Errorf("fleet: register with %s: %w", a.opts.Coordinator, err)
	}
	interval := time.Duration(resp.HeartbeatMS) * time.Millisecond
	if interval <= 0 {
		interval = 3 * time.Second
	}
	if a.beats == nil {
		a.beats = time.NewTicker(interval)
	} else {
		a.beats.Reset(interval)
	}
	a.log.Info("fleet: joined",
		"coordinator", a.opts.Coordinator, "name", a.opts.Name,
		"heartbeat", interval,
		"lease_ttl", time.Duration(resp.LeaseTTLMS)*time.Millisecond)
	return nil
}

// beat sends one heartbeat and acts on the response: cancel every shard
// the coordinator rescheduled away (running it on would only produce a
// duplicate completion), and re-register when the coordinator does not
// know us — it restarted and lost its registry.
func (a *Agent) beat(ctx context.Context) {
	var resp heartbeatResponse
	var se *statusError
	err := a.once.do(ctx, http.MethodPost, a.opts.Coordinator+"/v1/fleet/heartbeat",
		heartbeatRequest{Worker: a.opts.Name}, decode(&resp))
	if err != nil {
		if errors.As(err, &se) && se.code == http.StatusNotFound {
			a.log.Warn("fleet: coordinator forgot us; re-registering", "error", err)
			if rerr := a.register(ctx); rerr != nil && ctx.Err() == nil {
				a.log.Warn("fleet: re-register failed", "error", rerr)
			}
			return
		}
		a.log.Warn("fleet: heartbeat failed", "error", err)
		return
	}
	for _, id := range resp.Cancel {
		if a.opts.Engine != nil {
			if cerr := a.opts.Engine.Cancel(id); cerr == nil {
				a.log.Info("fleet: canceled stale shard", "job", id)
			}
		}
	}
}

// leave announces a graceful departure so the coordinator reschedules this
// worker's shards immediately instead of waiting out their leases.
func (a *Agent) leave() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var out map[string]string
	if err := a.once.do(ctx, http.MethodPost, a.opts.Coordinator+"/v1/fleet/leave",
		heartbeatRequest{Worker: a.opts.Name}, decode(&out)); err != nil {
		a.log.Warn("fleet: leave failed", "error", err)
		return
	}
	a.log.Info("fleet: left", "coordinator", a.opts.Coordinator)
}
