// Package fleet turns one neutral-serve process into the coordinator of a
// fault-tolerant worker fleet, after the master/worker architecture of the
// paper's parallel framework: workers register over the same HTTP/JSON API
// the jobs use, the coordinator dispatches job shards to them under leases
// that live as long as their worker, and a worker silent for a TTL (no
// heartbeat, no stream line) has its shards rescheduled onto a healthy peer
// from the last checkpoint the coordinator pulled. The coordinator keeps no
// store: its engine chooses each shard's seed and files every pulled
// checkpoint. When no worker is reachable at all the engine degrades
// gracefully to local in-process execution — a fleet of zero is just the
// single-process server.
//
// Robustness is the design center, so every failure-handling decision is
// observable (the fleet_* metric families) and injectable (Chaos, a
// deterministic fault layer a caller wraps its client's transport in, which
// the tests drive through worker crashes, lost heartbeats, duplicate
// completions and stale leases).
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/service/blob"
	"repro/internal/telemetry"
)

// Options tunes a Coordinator.
type Options struct {
	// LeaseTTL is how long a worker holding shards may go without proof of
	// life before it is presumed dead and every shard it holds reschedules.
	// Workers are told to beat every LeaseTTL/3, keeping two missable beats
	// inside one TTL. It also paces the coordinator's retries of its worker
	// requests (see Coordinator.req). 0 means 10s.
	LeaseTTL time.Duration
	// Client performs worker HTTP requests; nil means a client with a
	// bounded dial and response-header wait but no whole-request timeout
	// (a whole-request deadline would kill the long-lived SSE watch
	// streams). Fault injection is a Chaos the caller wraps its transport in.
	Client *http.Client
	// Deprecated: Blobs is not read — the engine files every checkpoint, and
	// hands RunShard its seed. The field stays only because
	// benchmark/stack.go sets it, and goes with the next change to
	// benchmark/.
	Blobs blob.Store
	// Logger receives lease and reschedule events; nil discards them.
	Logger *slog.Logger
	// Registry receives the fleet_* metric families; nil means a private
	// registry. Pass the engine's registry so one /metrics scrape carries
	// both vocabularies.
	Registry *telemetry.Registry
}

const (
	// maxReschedules bounds how many times one shard may move to a new
	// worker before the coordinator gives up and degrades the shard to
	// local execution.
	maxReschedules = 3
	// requestTimeout bounds each non-streaming worker request (submit,
	// status, result, snapshot pull). SSE watches are exempt — they live
	// as long as the shard.
	requestTimeout = 10 * time.Second
)

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	if o.Registry == nil {
		o.Registry = telemetry.NewRegistry()
	}
	if o.Client == nil {
		// No Client.Timeout — that clock would also cut down the SSE watch
		// streams. Bound the per-connection phases instead: dialing a dead
		// address and waiting on a stuck server both fail fast, while an
		// accepted stream may flow for hours.
		o.Client = &http.Client{Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			ResponseHeaderTimeout: 10 * time.Second,
		}}
	}
	return o
}

// worker is the coordinator's view of one registered worker process. It
// is the one liveness clock: its leases have none of their own, and live
// exactly as long as it does.
type worker struct {
	name string
	url  string
	// lastBeat is the newest proof of life: a registration, a heartbeat, a
	// job the worker accepted, or any line on one of its streams.
	lastBeat time.Time
	// suspect marks a worker that lost a shard; dispatch avoids it until a
	// heartbeat or a registration vouches for it again.
	suspect  bool
	departed bool
	// leases are the shards this worker holds.
	leases map[*lease]bool
	// stale lists remote job IDs this worker should cancel — shards that
	// were rescheduled away while it was presumed dead. Delivered and
	// cleared by its next heartbeat.
	stale []string
	// dispatches and failures count shards sent to and lost on this
	// worker.
	dispatches uint64
	failures   uint64
}

// lease is one shard-to-worker assignment. The cancel func aborts the
// dispatch attempt watching the shard, so losing the worker and
// rescheduling are the same mechanism: kill the watch, let the dispatch
// loop pick a new worker.
type lease struct {
	worker *worker
	jobID  string
	cancel context.CancelFunc
}

// Coordinator owns the worker registry and the leases its workers hold,
// serves the /v1/fleet control plane, and implements service.RemoteRunner:
// the engine hands it eligible job shards and it returns their results,
// surviving worker deaths in between.
type Coordinator struct {
	opts    Options
	log     *slog.Logger
	client  *http.Client
	metrics *fleetMetrics
	// req carries every non-streaming worker request. Its backoff is the
	// lease's: the first retry at TTL/200, doubling to TTL/5, five attempts
	// — at the default 10s TTL, 50ms to 2s. A test's short lease retries
	// as fast as it beats.
	req requester

	mu      sync.Mutex
	workers map[string]*worker
	rr      uint64

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// NewCoordinator builds a coordinator and starts its janitor.
func NewCoordinator(opts Options) *Coordinator {
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:        opts,
		log:         opts.Logger,
		client:      opts.Client,
		workers:     map[string]*worker{},
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	c.metrics = newFleetMetrics(c, opts.Registry)
	c.req = requester{client: opts.Client, first: opts.LeaseTTL / 200, cap: opts.LeaseTTL / 5,
		attempts: 5, retries: c.metrics.retries}
	go c.janitor()
	return c
}

// Close stops the janitor. In-flight dispatches keep their contexts; the
// engine's own shutdown cancels them.
func (c *Coordinator) Close() {
	close(c.janitorStop)
	<-c.janitorDone
}

// janitor looks for silent workers on a quarter of the TTL, so a dead
// worker is detected within ~1.25 TTLs at worst.
func (c *Coordinator) janitor() {
	defer close(c.janitorDone)
	tick := max(c.opts.LeaseTTL/4, 5*time.Millisecond)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.janitorStop:
			return
		case now := <-t.C:
			c.loseSilent(now)
		}
	}
}

// loseSilent loses every worker that holds leases and has gone a TTL
// without proof of life: each of its watches is cancelled (triggering a
// reschedule), each orphaned remote job is queued for cancellation on its
// next heartbeat — if it ever beats again — and it is marked suspect.
func (c *Coordinator) loseSilent(now time.Time) {
	c.mu.Lock()
	var lost []*lease
	for _, w := range c.workers {
		if len(w.leases) == 0 || now.Sub(w.lastBeat) <= c.opts.LeaseTTL {
			continue
		}
		for l := range w.leases {
			lost = append(lost, l)
			w.stale = append(w.stale, l.jobID)
		}
		w.leases = nil
		w.suspect = true
	}
	c.mu.Unlock()
	for _, l := range lost {
		c.metrics.leaseExpirations.Inc()
		c.log.Info("fleet: worker silent, lease lost", "worker", l.worker.name, "job", l.jobID)
		l.cancel()
	}
}

// grantLease records that w accepted a shard — proof of life — and returns
// the lease it now holds; nil when w is no longer the registry's entry under
// its name (re-registered or departed since it was picked), whose leases no
// janitor pass would ever visit.
func (c *Coordinator) grantLease(w *worker, jobID string, cancel context.CancelFunc) *lease {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.workers[w.name] != w || w.departed {
		return nil
	}
	l := &lease{worker: w, jobID: jobID, cancel: cancel}
	if w.leases == nil {
		w.leases = map[*lease]bool{}
	}
	w.leases[l] = true
	w.dispatches++
	w.lastBeat = time.Now()
	return l
}

// renewLocked records proof of life from w: every lease it holds lives on
// with it. c.mu must be held.
func (c *Coordinator) renewLocked(w *worker) {
	w.lastBeat = time.Now()
	if len(w.leases) > 0 {
		c.metrics.leaseRenewals.Inc()
	}
}

// releaseLease removes a lease from its worker; false when the worker
// already lost it — the stale-lease signal the duplicate-completion counter
// hangs off.
func (c *Coordinator) releaseLease(l *lease) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	held := l.worker.leases[l]
	delete(l.worker.leases, l)
	return held
}

// alive reports whether w counts as healthy for dispatch.
func (c *Coordinator) alive(w *worker, now time.Time) bool {
	return !w.departed && !w.suspect && now.Sub(w.lastBeat) < c.opts.LeaseTTL
}

// pickWorker chooses a healthy worker round-robin, preferring ones not in
// exclude (workers that already lost this shard); when every healthy
// worker is excluded it falls back to any healthy one — a retried worker
// beats a degraded shard. nil when no worker is healthy at all.
func (c *Coordinator) pickWorker(exclude map[string]bool) *worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	var healthy, preferred []*worker
	for _, w := range c.workers {
		if !c.alive(w, now) {
			continue
		}
		healthy = append(healthy, w)
		if !exclude[w.name] {
			preferred = append(preferred, w)
		}
	}
	pool := preferred
	if len(pool) == 0 {
		pool = healthy
	}
	if len(pool) == 0 {
		return nil
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].name < pool[j].name })
	w := pool[int(c.rr)%len(pool)]
	c.rr++
	return w
}

func (c *Coordinator) countWorkers(aliveOnly bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	n := 0
	for _, w := range c.workers {
		if w.departed {
			continue
		}
		if !aliveOnly || c.alive(w, now) {
			n++
		}
	}
	return n
}

func (c *Coordinator) countLeases() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		n += len(w.leases)
	}
	return n
}

// Workers reports the registry for the /v1/fleet/workers view.
func (c *Coordinator) Workers() []WorkerView {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	views := make([]WorkerView, 0, len(c.workers))
	for _, w := range c.workers {
		views = append(views, WorkerView{
			Name:       w.name,
			URL:        w.url,
			Alive:      c.alive(w, now),
			Departed:   w.departed,
			LastBeat:   w.lastBeat,
			Dispatches: w.dispatches,
			Failures:   w.failures,
		})
	}
	sort.Slice(views, func(i, j int) bool { return views[i].Name < views[j].Name })
	return views
}

// WorkerView is the wire form of one registry entry.
type WorkerView struct {
	Name     string    `json:"name"`
	URL      string    `json:"url"`
	Alive    bool      `json:"alive"`
	Departed bool      `json:"departed,omitempty"`
	LastBeat time.Time `json:"last_beat,omitzero"`
	// Dispatches counts shards sent here; Failures shards lost here.
	Dispatches uint64 `json:"dispatches"`
	Failures   uint64 `json:"failures,omitempty"`
}

// registerRequest and friends are the /v1/fleet control-plane wire forms.
type registerRequest struct {
	Worker string `json:"worker"`
	URL    string `json:"url"`
}

type registerResponse struct {
	// LeaseTTLMS and HeartbeatMS tell the worker the lease discipline it
	// registered into: beat every HeartbeatMS or lose your shards after
	// LeaseTTLMS.
	LeaseTTLMS  int64 `json:"lease_ttl_ms"`
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

type heartbeatRequest struct {
	Worker string `json:"worker"`
}

type heartbeatResponse struct {
	// Cancel lists remote job IDs the worker should cancel: shards
	// rescheduled away while it was presumed dead. Running them to
	// completion would only produce a duplicate result the coordinator
	// discards.
	Cancel []string `json:"cancel,omitempty"`
}

// Routes returns the control-plane handlers keyed by mux pattern — made to
// be passed as service.ServerOptions.Mounts so fleet requests share the
// job API's port, middleware and access log.
func (c *Coordinator) Routes() map[string]http.Handler {
	return map[string]http.Handler{
		"POST /v1/fleet/register":  http.HandlerFunc(c.handleRegister),
		"POST /v1/fleet/heartbeat": http.HandlerFunc(c.handleHeartbeat),
		"POST /v1/fleet/leave":     http.HandlerFunc(c.handleLeave),
		"GET /v1/fleet/workers":    http.HandlerFunc(c.handleWorkers),
	}
}

func fleetJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func fleetError(w http.ResponseWriter, code int, err error) {
	fleetJSON(w, code, map[string]string{"error": err.Error()})
}

// maxControlBody caps control-plane request bodies. Register, heartbeat and
// leave each carry a name and a URL; a megabyte is three orders of headroom
// and still refuses an accidental (or hostile) giant POST before it buffers.
const maxControlBody = 1 << 20

// decodeControl decodes a capped control-plane body, answering 413 on
// overflow and 400 on malformed JSON. Reports whether decoding succeeded.
func decodeControl(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxControlBody)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			fleetError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("decode %s: body exceeds %d bytes", what, tooBig.Limit))
			return false
		}
		fleetError(w, http.StatusBadRequest, fmt.Errorf("decode %s: %w", what, err))
		return false
	}
	return true
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !decodeControl(w, r, "register", &req) {
		return
	}
	if req.Worker == "" || req.URL == "" {
		fleetError(w, http.StatusBadRequest, errors.New("fleet: register needs worker and url"))
		return
	}
	c.mu.Lock()
	// Re-registration (a restarted worker) replaces the entry wholesale,
	// and the old process's leases die with it: their shards reschedule.
	var dropped map[*lease]bool
	if old := c.workers[req.Worker]; old != nil {
		dropped, old.leases = old.leases, nil
	}
	c.workers[req.Worker] = &worker{name: req.Worker, url: req.URL, lastBeat: time.Now()}
	c.mu.Unlock()
	for l := range dropped {
		l.cancel()
	}
	c.log.Info("fleet: worker registered", "worker", req.Worker, "url", req.URL)
	fleetJSON(w, http.StatusOK, registerResponse{
		LeaseTTLMS:  c.opts.LeaseTTL.Milliseconds(),
		HeartbeatMS: (c.opts.LeaseTTL / 3).Milliseconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeControl(w, r, "heartbeat", &req) {
		return
	}
	c.mu.Lock()
	wk, ok := c.workers[req.Worker]
	var stale []string
	if ok {
		c.renewLocked(wk)
		wk.suspect, wk.departed = false, false // a beat always revives a suspect
		stale, wk.stale = wk.stale, nil
	}
	c.mu.Unlock()
	if !ok {
		// Unknown workers re-register; a coordinator restart must not
		// strand a beating fleet.
		fleetError(w, http.StatusNotFound, fmt.Errorf("fleet: unknown worker %q", req.Worker))
		return
	}
	c.metrics.heartbeats.Inc()
	fleetJSON(w, http.StatusOK, heartbeatResponse{Cancel: stale})
}

func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeControl(w, r, "leave", &req) {
		return
	}
	c.mu.Lock()
	wk, ok := c.workers[req.Worker]
	var dropped map[*lease]bool
	if ok {
		wk.departed = true
		dropped, wk.leases = wk.leases, nil
	}
	c.mu.Unlock()
	if !ok {
		fleetError(w, http.StatusNotFound, fmt.Errorf("fleet: unknown worker %q", req.Worker))
		return
	}
	c.log.Info("fleet: worker departed", "worker", req.Worker, "leases_dropped", len(dropped))
	// Cancel the watches so their shards reschedule immediately; a
	// departing worker has already checkpointed what it could.
	for l := range dropped {
		l.cancel()
	}
	fleetJSON(w, http.StatusOK, map[string]string{"status": "bye"})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	fleetJSON(w, http.StatusOK, c.Workers())
}
