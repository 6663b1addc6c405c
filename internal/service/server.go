package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/scene"
	"repro/internal/telemetry"
)

// JobView is the wire representation of a job snapshot.
type JobView struct {
	ID     string `json:"id"`
	State  State  `json:"state"`
	Cached bool   `json:"cached,omitempty"`
	// Progress, Step and Steps are Status's, derived from the step records
	// StepsDone counts (streamed as SSE "step" events).
	Progress  float64 `json:"progress"`
	Step      int     `json:"step"`
	Steps     int     `json:"steps"`
	StepsDone int     `json:"steps_done,omitempty"`
	// Replicas is the ensemble width of an ensemble job; ReplicasDone
	// counts the replicas merged so far (streamed as SSE "replica"
	// events). Both absent for plain jobs.
	Replicas     int `json:"replicas,omitempty"`
	ReplicasDone int `json:"replicas_done,omitempty"`
	// ResumedFrom, when present, is the checkpointed step boundary the
	// solver resumed at instead of re-running from scratch.
	ResumedFrom *int `json:"resumed_from,omitempty"`
	// AssignedWorker names the fleet worker the job last ran on, and
	// Reschedules counts how many times its shard was reassigned after a
	// lease expiry. Both absent outside a fleet coordinator.
	AssignedWorker string `json:"assigned_worker,omitempty"`
	Reschedules    int    `json:"reschedules,omitempty"`
	// Warnings lists non-fatal degradations the job survived — failed
	// checkpoint writes, fleet fallback to local execution.
	Warnings  []string   `json:"warnings,omitempty"`
	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
}

func viewOf(st Status) JobView {
	v := JobView{
		ID:           st.ID,
		State:        st.State,
		Cached:       st.Cached,
		Progress:     st.Progress,
		Step:         st.Step,
		Steps:        st.Steps,
		StepsDone:    st.StepsDone,
		Replicas:     st.Replicas,
		ReplicasDone: st.ReplicasDone,
		Submitted:    st.Submitted,

		AssignedWorker: st.Worker,
		Reschedules:    st.Reschedules,
		Warnings:       st.Warnings,
	}
	if st.ResumedFrom >= 0 {
		r := st.ResumedFrom
		v.ResumedFrom = &r
	}
	if st.Err != nil {
		v.Error = st.Err.Error()
	}
	if !st.Started.IsZero() {
		t := st.Started
		v.Started = &t
	}
	if !st.Finished.IsZero() {
		t := st.Finished
		v.Finished = &t
	}
	return v
}

// Server exposes an engine over HTTP/JSON:
//
//	POST   /v1/jobs            submit a Spec; 202 (queued) or 200 (cache hit)
//	POST   /v1/batch           submit N Specs in order; per-item statuses
//	GET    /v1/jobs            list jobs
//	GET    /v1/jobs/{id}       job status
//	GET    /v1/jobs/{id}/result  result; blocks when ?wait=true
//	GET    /v1/jobs/{id}/steps   per-timestep results recorded so far
//	GET    /v1/jobs/{id}/replicas  per-replica results of an ensemble job
//	GET    /v1/jobs/{id}/stream  server-sent progress + per-step + per-replica events
//	GET    /v1/jobs/{id}/snapshot  latest retained checkpoint (retain_snapshot runs)
//	GET    /v1/jobs/{id}/trace   per-step phase spans as Chrome trace-event JSON
//	DELETE /v1/jobs/{id}       cancel
//	GET    /v1/stats           engine counters
//	GET    /metrics            Prometheus text exposition
//	GET    /healthz            liveness
//	GET    /debug/pprof/*      runtime profiles (ServerOptions.Pprof only)
//
// Every request passes through the observe middleware: a correlation id
// (honouring inbound X-Request-Id), one structured access-log line, and
// the http_requests metric.
type Server struct {
	engine    *Engine
	mux       *http.ServeMux
	handler   http.Handler
	log       *slog.Logger
	heartbeat time.Duration
	auth      *Auth
	maxBody   int64
	defScene  *scene.Scene
}

// ServerOptions tunes the HTTP layer.
type ServerOptions struct {
	// Logger receives the structured access and error logs; nil discards
	// them (library default — cmd/neutral-serve always passes one).
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiles expose internals, so operators opt in per process.
	Pprof bool
	// Heartbeat is the SSE keepalive-comment interval; 0 means 15s.
	Heartbeat time.Duration
	// Mounts adds extra handlers to the server mux by pattern — how the
	// fleet coordinator hangs its control plane (/v1/fleet/...) off the
	// job API. Mounted handlers pass through the same observe and
	// authentication middleware (request id, access log, http_requests
	// metric, bearer-token tenancy) as built-in routes.
	Mounts map[string]http.Handler
	// Auth, when non-nil, requires a bearer token on every request except
	// /healthz and /metrics, and enforces per-tenant rate limits on the
	// job-creating endpoints. Nil serves every request as the anonymous
	// tenant.
	Auth *Auth
	// MaxBodyBytes caps request bodies on the built-in decoding endpoints
	// (submit and batch); oversized requests are answered 413. Mounted
	// handlers cap their own bodies: the fleet control plane refuses more
	// than 1 MiB. 0 means 32 MiB — roomy enough for a seeded resume
	// snapshot, small enough to stop an accidental or hostile
	// multi-gigabyte POST from exhausting memory.
	MaxBodyBytes int64
	// DefaultScene, when non-nil, is the problem of submissions that name
	// neither a problem nor an inline scene — how cmd/neutral-serve's
	// -scene flag sets a server-wide default. It must be validated
	// (scene.LoadFile and Parse validate).
	DefaultScene *scene.Scene
}

// DefaultMaxBodyBytes is the request-body cap applied when
// ServerOptions.MaxBodyBytes is zero.
const DefaultMaxBodyBytes = 32 << 20

// NewServer wires the engine's handlers onto a fresh mux with default
// options (discarded logs, no pprof).
func NewServer(e *Engine) *Server { return NewServerWith(e, ServerOptions{}) }

// NewServerWith is NewServer with explicit HTTP-layer options.
func NewServerWith(e *Engine, opts ServerOptions) *Server {
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	hb := opts.Heartbeat
	if hb <= 0 {
		hb = 15 * time.Second
	}
	maxBody := opts.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	s := &Server{
		engine:    e,
		mux:       http.NewServeMux(),
		log:       log,
		heartbeat: hb,
		auth:      opts.Auth,
		maxBody:   maxBody,
		defScene:  opts.DefaultScene,
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/jobs/{id}/steps", s.handleSteps)
	s.mux.HandleFunc("GET /v1/jobs/{id}/replicas", s.handleReplicas)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	for pattern, h := range opts.Mounts {
		s.mux.Handle(pattern, h)
	}
	if opts.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.handler = s.observe(s.withAuth(s.mux))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError reports a request failure. Client errors (4xx) and the
// deliberate backpressure signals (queue full, engine closing) carry their
// message to the caller; any other 5xx is logged in full via slog and
// answered with a generic message plus the request id, so internal error
// strings never leak to clients while operators can still correlate.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, code int, err error) {
	// Every shed response tells the client when to come back: 429s usually
	// arrive with an exact token-refill Retry-After already set (admit);
	// anything else — queue-full and shutdown 503s included — gets the
	// engine's queue-drain estimate. Retryable clients (the fleet's request
	// path honours Retry-After) then pace themselves instead of hammering.
	if (code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable) &&
		w.Header().Get("Retry-After") == "" {
		setRetryAfter(w, s.engine.ShedDelay())
	}
	if code >= 500 && !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrClosed) {
		id := RequestID(r.Context())
		s.log.LogAttrs(r.Context(), slog.LevelError, "internal error",
			slog.String("request_id", id),
			slog.Int("status", code),
			slog.String("error", err.Error()))
		writeJSON(w, code, map[string]string{
			"error":      "internal error",
			"request_id": id,
		})
		return
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// applyDefaultScene fills a submission that names neither a problem nor an
// inline scene with the server's default scene, when one is configured.
func (s *Server) applyDefaultScene(spec *Spec) {
	if spec.Problem == "" && spec.Scene == nil {
		spec.Scene = s.defScene
	}
}

// decodeBody decodes a JSON request body into v under the server's body cap,
// answering 413 when the cap is hit and 400 on malformed JSON. Reports
// whether the request was already answered.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, r, http.StatusRequestEntityTooLarge,
				fmt.Errorf("decode %s: body exceeds %d bytes", what, tooBig.Limit))
			return false
		}
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("decode %s: %w", what, err))
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if !s.decodeBody(w, r, "spec", &spec) {
		return
	}
	if !s.admit(w, r, 1) {
		return
	}
	j, err := s.submitSpec(r, spec)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		s.writeError(w, r, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	v := viewOf(j.Status())
	annotate(r,
		slog.String("job_id", j.ID()),
		slog.String("fingerprint", j.key),
		slog.String("job_state", string(v.State)))
	if v.State.Terminal() {
		writeJSON(w, http.StatusOK, v) // served from cache
	} else {
		writeJSON(w, http.StatusAccepted, v)
	}
}

// submitSpec is the one spec admission of POST /v1/jobs and of each
// POST /v1/batch item: the spec resolved (under the server's default scene)
// and submitted with its snapshot and retention, as the request's tenant. A
// full queue counts as a queue shed of that tenant.
func (s *Server) submitSpec(r *http.Request, spec Spec) (*Job, error) {
	s.applyDefaultScene(&spec)
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	tenant := TenantName(r.Context())
	j, err := s.engine.SubmitWith(cfg, SubmitOptions{
		Snapshot:       spec.Snapshot,
		RetainSnapshot: spec.RetainSnapshot,
		Tenant:         tenant,
	})
	if errors.Is(err, ErrQueueFull) {
		s.engine.metrics.tenantShed.With(tenant, "queue").Inc()
	}
	return j, err
}

// BatchRequest is the wire format of POST /v1/batch.
type BatchRequest struct {
	Specs []Spec `json:"specs"`
}

// BatchItemView is one per-item admission outcome: an accepted item
// carries its job view, a rejected one only its error, with an explicit
// discriminator so clients never have to interpret a zero-valued job.
type BatchItemView struct {
	Accepted bool     `json:"accepted"`
	Error    string   `json:"error,omitempty"`
	Job      *JobView `json:"job,omitempty"`
}

// BatchResponse reports per-item admission outcomes; the batch as a whole
// is never failed by one bad item.
type BatchResponse struct {
	Items []BatchItemView `json:"items"`
}

// maxBatchSpecs bounds one batch request; larger sweeps should be split so
// admission control (the queue bound) stays meaningful.
const maxBatchSpecs = core.MaxReplicas

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decodeBody(w, r, "batch", &req) {
		return
	}
	if len(req.Specs) == 0 {
		s.writeError(w, r, http.StatusBadRequest, errors.New("service: empty batch"))
		return
	}
	if len(req.Specs) > maxBatchSpecs {
		s.writeError(w, r, http.StatusBadRequest,
			fmt.Errorf("service: batch of %d specs exceeds limit %d", len(req.Specs), maxBatchSpecs))
		return
	}
	// A batch spends one admission token per spec — otherwise batching
	// would be a rate-limit bypass.
	if !s.admit(w, r, len(req.Specs)) {
		return
	}

	// Admission is per item, in request order: a spec that does not resolve,
	// an invalid config or a full queue fails that item, never the batch.
	resp := BatchResponse{Items: make([]BatchItemView, len(req.Specs))}
	for i, spec := range req.Specs {
		j, err := s.submitSpec(r, spec)
		if err != nil {
			resp.Items[i].Error = err.Error()
			continue
		}
		v := viewOf(j.Status())
		resp.Items[i] = BatchItemView{Accepted: true, Job: &v}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSteps(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Steps())
	}
}

func (s *Server) handleReplicas(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Replicas())
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.engine.Jobs()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = viewOf(j.Status())
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, err := s.engine.Job(r.PathValue("id"))
	if err != nil {
		s.writeError(w, r, http.StatusNotFound, err)
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, viewOf(j.Status()))
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("wait") == "true" {
		if err := j.Wait(r.Context()); err != nil {
			s.writeError(w, r, http.StatusRequestTimeout, err)
			return
		}
	}
	res, err := j.serve()
	switch {
	case errors.Is(err, ErrNotFinished):
		writeJSON(w, http.StatusAccepted, viewOf(j.Status()))
	case err != nil:
		s.writeError(w, r, http.StatusConflict, err)
	default:
		// The result's one form, cells as their runs: a single run's body is
		// its blob-tier bytes, encoded when first asked for and then shared.
		var ens *EnsembleView
		if e := j.Ensemble(); e != nil {
			ens = ensembleViewOf(e, j.Config().KeepCells)
		}
		data, err := res.body(ens)
		// The form ends in a newline, as writeJSON's Encoder writes; its length
		// is declared for a one-buffer read; a view it cannot encode is an
		// empty 200.
		w.Header().Set("Content-Type", "application/json")
		if err == nil {
			w.Header().Set("Content-Length", strconv.Itoa(len(data)))
			w.Write(data)
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if err := s.engine.Cancel(j.ID()); err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, viewOf(j.Status()))
}

// handleStream pushes the job over server-sent events until it is terminal
// or the client disconnects: a "step" event for every completed timestep
// (each carrying its tally total, wallclock and population — the per-step
// results a coupled client consumes — and, on a retain_snapshot job, the
// boundary of the checkpoint /snapshot serves), a "progress" snapshot whenever the
// job view changed (sampled every 100 ms), a keepalive comment on the
// server's heartbeat interval so idle streams survive proxy idle timeouts,
// and a final "done" event with the closing snapshot. Step events already
// recorded when the client connects are replayed first, so a late
// subscriber still sees the whole per-step history.
//
// Step and replica events carry SSE ids of the form "s<steps>r<replicas>"
// — cumulative counts after the event. A reconnecting client that sends
// Last-Event-ID (EventSource does this automatically) resumes exactly
// after the last event it saw instead of replaying the whole history; an
// unparseable id falls back to a full replay, which is safe because the
// histories are append-only.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		s.writeError(w, r, http.StatusNotImplemented, errors.New("service: streaming unsupported"))
		return
	}
	s.engine.metrics.streamSubscribers.Inc()
	defer s.engine.metrics.streamSubscribers.Dec()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	sent, sentReps := 0, 0
	if lastID := r.Header.Get("Last-Event-ID"); lastID != "" {
		var ls, lr int
		if n, _ := fmt.Sscanf(lastID, "s%dr%d", &ls, &lr); n == 2 && ls >= 0 && lr >= 0 {
			sent, sentReps = ls, lr
		}
	}
	// flush writes what the job recorded since the last flush, read under
	// one lock: the fresh steps, the fresh replicas, then the job view as the
	// named event. Progress snapshots are deduplicated against the last sent
	// payload; heartbeats carry the idle stream instead, at far lower
	// frequency.
	var lastView []byte
	flush := func(event string) {
		steps, replicas, st := j.since(sent, sentReps)
		for _, sv := range steps {
			data, _ := json.Marshal(sv)
			sent++
			fmt.Fprintf(w, "id: s%dr%d\nevent: step\ndata: %s\n\n", sent, sentReps, data)
		}
		for _, rv := range replicas {
			data, _ := json.Marshal(rv)
			sentReps++
			fmt.Fprintf(w, "id: s%dr%d\nevent: replica\ndata: %s\n\n", sent, sentReps, data)
		}
		data, _ := json.Marshal(viewOf(st))
		if event == "progress" && bytes.Equal(data, lastView) {
			return // the view counts steps and replicas: none was written either
		}
		lastView = data
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	heartbeat := time.NewTicker(s.heartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-j.Done():
			flush("done")
			return
		case <-r.Context().Done():
			return
		case <-tick.C:
			flush("progress")
		case <-heartbeat.C:
			// SSE comment line: ignored by EventSource clients, but
			// traffic enough to keep proxies from reaping the stream.
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		}
	}
}

// handleSnapshot serves the job's latest checkpoint (Job.ckpt) as the raw
// snapshot binary — the pull side of fleet rescheduling: a coordinator
// fetches the worker's last checkpointed boundary here and seeds the
// replacement shard with it. Without a durable store that is the job's first
// boundary, then the first due one after the last read here (see
// Engine.checkpoint), not necessarily the last step completed, and it stays
// served after the job is done, until its result is first served. 404 while
// the job holds none (an unseeded retain_snapshot run before its first step
// boundary, or one whose result was fetched); X-Neutral-Step carries the step
// index the snapshot restores to, -1 for one the job was handed rather than
// took, and Content-Length its size, for a one-buffer read.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	data, step := j.pull()
	if data == nil {
		s.writeError(w, r, http.StatusNotFound,
			errors.New("service: no retained snapshot (submit with retain_snapshot, then wait for a step boundary)"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Neutral-Step", strconv.Itoa(step))
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// handleTrace serves the job's per-step phase spans, laid out from its step
// views, as Chrome trace-event JSON — load it in chrome://tracing or Perfetto
// to see where each step's wallclock went. A coordinator's job serves the
// spans its worker's step views brought. 404s for jobs with no recorded steps
// (cache hits and ensemble parents; an ensemble's traces live on its replica
// jobs).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	steps := j.Steps()
	if len(steps) == 0 {
		s.writeError(w, r, http.StatusNotFound,
			errors.New("service: no trace recorded for job"))
		return
	}
	tr := telemetry.NewTrace()
	track := tr.Track(j.ID())
	for _, st := range steps {
		track.AddStep(st.Step, st.StepWall, st.Phases)
	}
	w.Header().Set("Content-Type", "application/json")
	tr.WriteChrome(w)
}

// handleMetrics serves the engine's registry in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.engine.Registry().WritePrometheus(w)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
