package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"time"

	"repro/internal/fleet/retry"
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
	// Retry paces registration and heartbeat attempts. The zero policy
	// gets agent defaults: 100ms initial, 5s cap, unlimited attempts —
	// a worker outliving a coordinator restart keeps knocking.
	Retry retry.Policy
	// Logger receives membership events; nil discards them.
	Logger *slog.Logger
}

// Agent keeps one worker process registered with its coordinator: register
// on start, heartbeat at the coordinator-advertised interval (renewing the
// worker's shard leases), cancel shards the coordinator rescheduled away,
// re-register when the coordinator forgot us, and leave gracefully on
// shutdown.
type Agent struct {
	opts   AgentOptions
	log    *slog.Logger
	client *http.Client
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
	if opts.Retry.Initial == 0 && opts.Retry.Attempts == 0 && opts.Retry.Budget == 0 {
		// Rand only on the default policy (injected test policies stay
		// deterministic): a fleet of workers re-registering after a
		// coordinator restart must not knock in lockstep.
		opts.Retry = retry.Policy{
			Initial: 100 * time.Millisecond,
			Max:     5 * time.Second,
			Jitter:  0.2,
			Rand:    rand.Float64,
		}
	}
	return &Agent{opts: opts, log: opts.Logger, client: opts.Client}, nil
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

// register joins the fleet under the agent's retry policy and adopts the
// coordinator's advertised heartbeat interval — on a re-registration too, so
// a coordinator restarted with a shorter lease is beaten at its own pace.
func (a *Agent) register(ctx context.Context) error {
	var resp registerResponse
	err := retry.Do(ctx, a.opts.Retry, func(ctx context.Context) error {
		return a.post(ctx, "/v1/fleet/register",
			registerRequest{Worker: a.opts.Name, URL: a.opts.Self}, &resp)
	})
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
	err := a.post(ctx, "/v1/fleet/heartbeat", heartbeatRequest{Worker: a.opts.Name}, &resp)
	if err != nil {
		if retry.IsPermanent(err) {
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
	if err := a.post(ctx, "/v1/fleet/leave", heartbeatRequest{Worker: a.opts.Name}, &out); err != nil {
		a.log.Warn("fleet: leave failed", "error", err)
		return
	}
	a.log.Info("fleet: left", "coordinator", a.opts.Coordinator)
}

// post sends one JSON request to the coordinator and decodes the reply.
func (a *Agent) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return retry.Permanent(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		a.opts.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return retry.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := retry.CheckResponse(resp); err != nil {
		io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
