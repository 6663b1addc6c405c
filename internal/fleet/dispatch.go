package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/service"
)

// shardRun is the coordinator-side state of one shard across however many
// workers it takes: the latest pulled checkpoint survives worker deaths,
// so every reassignment resumes instead of restarting. snapStep is the step
// boundary snap was taken at (0 for none, or for the engine's seed, whose
// boundary is not known); a worker is pulled again only once it advertises a
// newer one.
type shardRun struct {
	cfg         core.Config
	spec        service.Spec
	snap        []byte
	snapStep    int
	reschedules int
	update      func(service.RemoteUpdate)
}

// outcome classifies one dispatch attempt.
type outcome int

const (
	outcomeDone     outcome = iota // shard completed, result in hand
	outcomeFailed                  // shard failed deterministically; retrying elsewhere cannot help
	outcomeCanceled                // the caller's context ended
	outcomeLost                    // worker died or went silent; reschedule
)

// RunShard implements service.RemoteRunner: it dispatches one job shard to
// the fleet, its first dispatch resuming from seed, and shepherds it to
// completion, rescheduling from the last pulled checkpoint when the assigned
// worker dies. Every pulled checkpoint goes to update, whose engine files it;
// the coordinator keeps no store. It returns an error wrapping
// service.ErrNoWorkers — the engine's degrade-to-local signal — when no
// healthy worker exists or the shard exhausted its reschedule budget; by then
// update has delivered the freshest checkpoint, so the local run resumes
// rather than restarts.
func (c *Coordinator) RunShard(ctx context.Context, cfg core.Config, seed []byte, update func(service.RemoteUpdate)) (*service.Filed, error) {
	spec, err := service.SpecOf(cfg)
	if err != nil {
		// An unvalidated config is not a fleet failure; run locally.
		return nil, fmt.Errorf("fleet: %v: %w", err, service.ErrNoWorkers)
	}
	spec.RetainSnapshot = true
	sr := &shardRun{cfg: cfg, spec: spec, snap: seed, update: update}
	if seed != nil {
		c.metrics.storeSeeds.Inc()
	}
	lost := map[string]bool{}
	for {
		w := c.pickWorker(lost)
		if w == nil {
			return nil, fmt.Errorf("fleet: %w", service.ErrNoWorkers)
		}
		res, out, err := c.runOn(ctx, w, sr)
		switch out {
		case outcomeDone:
			c.metrics.dispatches.With("done").Inc()
			return res, nil
		case outcomeFailed:
			c.metrics.dispatches.With("failed").Inc()
			return nil, err
		case outcomeCanceled:
			return nil, err
		default: // outcomeLost
			c.metrics.dispatches.With("lost").Inc()
			c.suspectWorker(w)
			lost[w.name] = true
			sr.reschedules++
			c.metrics.reschedules.Inc()
			c.log.Warn("fleet: shard lost, rescheduling",
				"worker", w.name, "reschedules", sr.reschedules, "cause", err)
			if sr.reschedules > maxReschedules {
				c.metrics.dispatches.With("degraded").Inc()
				return nil, fmt.Errorf("fleet: shard lost %d times (last: %v): %w",
					sr.reschedules, err, service.ErrNoWorkers)
			}
		}
	}
}

// suspectWorker marks a worker suspect after it lost a shard, so dispatch
// avoids it until its next heartbeat vouches for it again.
func (c *Coordinator) suspectWorker(w *worker) {
	c.mu.Lock()
	w.suspect = true
	w.failures++
	c.mu.Unlock()
}

// runOn executes one dispatch attempt: submit the shard (seeded with the
// latest checkpoint), take a lease, and watch the job's SSE stream —
// forwarding steps, pulling checkpoints, renewing the worker — until the
// job ends or the worker is lost. The lease's cancel func aborts the
// attempt context, which is how losing the worker turns into a reschedule.
func (c *Coordinator) runOn(ctx context.Context, w *worker, sr *shardRun) (*service.Filed, outcome, error) {
	attempt, cancel := context.WithCancel(ctx)
	defer cancel()

	spec := sr.spec
	spec.Snapshot = sr.snap
	var jv service.JobView
	if err := c.req.do(attempt, http.MethodPost, w.url+"/v1/jobs", spec, decode(&jv)); err != nil {
		return nil, classify(ctx), fmt.Errorf("fleet: submit to %s: %w", w.name, err)
	}
	ls := c.grantLease(w, jv.ID, cancel)
	if ls == nil {
		c.cancelRemote(w, jv.ID)
		return nil, outcomeLost, fmt.Errorf("fleet: %s re-registered or left before its lease was granted", w.name)
	}
	defer c.releaseLease(ls)
	sr.update(service.RemoteUpdate{Worker: w.name, Reschedules: sr.reschedules})

	sent := 0
	for {
		final, err := c.watch(attempt, w, jv.ID, sr, &sent)
		if err != nil {
			if classify(ctx) == outcomeCanceled {
				c.cancelRemote(w, jv.ID)
				return nil, outcomeCanceled, err
			}
			// The stream broke but the attempt is still live: ask once
			// (with retries) whether the job survived; reconnecting with
			// Last-Event-ID resumes exactly after the last step seen.
			var st service.JobView
			if perr := c.req.do(attempt, http.MethodGet, w.url+"/v1/jobs/"+jv.ID, nil, decode(&st)); perr != nil {
				return nil, classify(ctx),
					fmt.Errorf("fleet: worker %s unreachable: %w", w.name, perr)
			}
			if !st.State.Terminal() {
				continue
			}
			final = &st
		}
		// The shard reached a terminal state. Only the lease holder's
		// answer counts: a worker finishing after it lost its lease is a
		// duplicate completion — the shard already moved on.
		if !c.releaseLease(ls) {
			c.metrics.duplicateCompletions.Inc()
			return nil, outcomeLost, fmt.Errorf("fleet: stale completion from %s (lease lost)", w.name)
		}
		switch final.State {
		case service.StateDone:
			res, err := c.fetchResult(ctx, w, jv.ID, sr.cfg)
			if err != nil {
				return nil, outcomeLost, fmt.Errorf("fleet: fetch result from %s: %w", w.name, err)
			}
			return res, outcomeDone, nil
		case service.StateFailed:
			return nil, outcomeFailed, fmt.Errorf("fleet: shard failed on %s: %s", w.name, final.Error)
		default: // canceled remotely (operator action or stale-cancel race)
			return nil, outcomeLost, fmt.Errorf("fleet: shard canceled on %s", w.name)
		}
	}
}

// classify maps a failed attempt to its outcome: the caller's context ending
// is a cancellation; anything else — the attempt context alone ending (its
// worker lost), a request the worker rejected outright, a broken
// connection — is a lost worker.
func classify(ctx context.Context) outcome {
	if ctx.Err() != nil {
		return outcomeCanceled
	}
	return outcomeLost
}

// watch consumes the job's SSE stream, renewing the worker on every line
// (keepalive comments included — a quiet stream from a live process is not
// death), forwarding step results, and pulling the worker's retained
// checkpoint whenever a step advertises a newer one than the shard holds.
// Returns the final JobView when the stream delivered the "done" event, or
// an error when the stream broke first.
func (c *Coordinator) watch(ctx context.Context, w *worker, jobID string, sr *shardRun, sent *int) (*service.JobView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/v1/jobs/"+jobID+"/stream", nil)
	if err != nil {
		return nil, err
	}
	if *sent > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprintf("s%dr0", *sent))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := checkResponse(resp); err != nil {
		io.Copy(io.Discard, resp.Body)
		return nil, err
	}

	scan := bufio.NewScanner(resp.Body)
	scan.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var event string
	var data bytes.Buffer
	for scan.Scan() {
		line := scan.Text()
		// A renewal after the worker was lost needs no action here: losing
		// it cancelled this watch's context, and a completion racing past
		// that is caught as a duplicate.
		c.mu.Lock()
		c.renewLocked(w)
		c.mu.Unlock()
		switch {
		case line == "":
			if event != "" {
				if final, err := c.handleEvent(ctx, w, jobID, sr, sent, event, data.Bytes()); final != nil || err != nil {
					return final, err
				}
			}
			event = ""
			data.Reset()
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(line[len("data:"):]))
		}
		// id: lines and keepalive comments need nothing more — sent counts
		// steps directly.
	}
	if err := scan.Err(); err != nil {
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF // stream ended without a done event
}

// handleEvent processes one SSE event; a non-nil JobView is the stream's
// terminal "done" payload. A step event is always forwarded; it costs a
// snapshot pull only when the checkpoint it advertises is newer than the one
// held, so a burst of events written in one flush pulls once, and a worker is
// pulled at most as often as it checkpoints — which, without a store of its
// own, it does at most as often as it is pulled.
func (c *Coordinator) handleEvent(ctx context.Context, w *worker, jobID string, sr *shardRun, sent *int, event string, data []byte) (*service.JobView, error) {
	switch event {
	case "step":
		var sv service.StepView
		if err := json.Unmarshal(data, &sv); err != nil {
			return nil, fmt.Errorf("fleet: bad step event: %w", err)
		}
		*sent++
		// Losing a pull only costs resume granularity, never correctness:
		// the next newer advertisement tries again.
		var snap []byte
		if sv.Checkpoint > sr.snapStep {
			if got, step, err := c.pullSnapshot(ctx, w, jobID); err == nil {
				snap = got
				// The worker may have moved past what this event advertised.
				sr.snap, sr.snapStep = got, max(step, sv.Checkpoint)
				c.metrics.snapshotPulls.Inc()
			}
		}
		sr.update(service.RemoteUpdate{
			Worker:      w.name,
			Reschedules: sr.reschedules,
			Step:        &sv,
			Snapshot:    snap,
		})
	case "done":
		var jv service.JobView
		if err := json.Unmarshal(data, &jv); err != nil {
			return nil, fmt.Errorf("fleet: bad done event: %w", err)
		}
		return &jv, nil
	}
	return nil, nil
}

// cancelRemote best-effort cancels a remote job whose attempt was abandoned —
// the caller's context ended, or the lease was refused; the coordinator is
// shutting the shard down, not the worker.
func (c *Coordinator) cancelRemote(w *worker, jobID string) {
	req, err := http.NewRequest(http.MethodDelete, w.url+"/v1/jobs/"+jobID, nil)
	if err != nil {
		return
	}
	if resp, err := c.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// fetchResult fetches and files the job's result inside one retried request,
// so a body that arrives cut or corrupt is fetched again.
func (c *Coordinator) fetchResult(ctx context.Context, w *worker, jobID string, cfg core.Config) (res *service.Filed, err error) {
	err = c.req.do(ctx, http.MethodGet, w.url+"/v1/jobs/"+jobID+"/result", nil, func(resp *http.Response) error {
		body, err := readBody(resp)
		if err == nil {
			res, err = service.ParseFiled(body, cfg)
		}
		return err
	})
	return res, err
}

// pullSnapshot fetches the job's retained checkpoint from its worker, with
// the step boundary the worker says it was taken at (-1 when the header is
// missing or not a number).
func (c *Coordinator) pullSnapshot(ctx context.Context, w *worker, jobID string) (data []byte, step int, err error) {
	step = -1
	err = c.req.do(ctx, http.MethodGet, w.url+"/v1/jobs/"+jobID+"/snapshot", nil, func(resp *http.Response) (rerr error) {
		if n, perr := strconv.Atoi(resp.Header.Get("X-Neutral-Step")); perr == nil {
			step = n
		}
		data, rerr = readBody(resp)
		return rerr
	})
	return data, step, err
}

// readBody reads a response body into one buffer sized by its declared length
// (up to 256 MB; none from an older worker), not grown as it arrives.
func readBody(resp *http.Response) ([]byte, error) {
	var body bytes.Buffer
	body.Grow(int(min(max(resp.ContentLength, 0), 256<<20)) + bytes.MinRead)
	_, err := body.ReadFrom(resp.Body)
	return body.Bytes(), err
}
