// Package service turns the single-shot neutral solver into a long-running
// simulation service: a bounded fair-share job queue (this file), a pool of
// workers that each take its next runnable job when free, every started job
// on one path — start, acquire the worker's core.Simulation, run, settle
// (engine.go) — the job state machine, whose lock only its own methods take
// (job.go), a result store keyed by the canonical config fingerprint
// (store.go) with an optional blob-store persistent tier (blob/), per-tenant
// authentication and admission control (auth.go, quota.go), and an HTTP/JSON
// front end with streaming progress (server.go; spec.go and result.go hold
// its request and result wire forms).
//
// The design follows the client/server job frameworks the transport-code
// literature converged on (Kostin et al.; MC/DC): the solver stays a pure
// batch kernel, and everything long-lived — admission control, scheduling,
// caching, cancellation — lives here.
package service

import (
	"errors"
	"sync"
	"time"
)

// Queue errors.
var (
	// ErrQueueFull rejects a submission when the queue is at capacity —
	// the service's admission control under overload.
	ErrQueueFull = errors.New("service: queue full")
	// ErrClosed rejects operations on a closed queue or engine.
	ErrClosed = errors.New("service: closed")
)

// Queue is a bounded, tenant-fair job queue shared by every worker of an
// engine. Push never blocks — a full queue rejects, pushing back-pressure to
// the client — while Pop blocks until a job can run or the queue is closed
// and drained.
//
// Jobs are held in per-tenant FIFO lanes and Pop round-robins across the
// lanes with queued work, so order is FIFO within a tenant but interleaved
// across tenants: a tenant that floods the queue delays its own backlog,
// while another tenant's single job is picked up after at most one
// round-robin turn. The capacity bound stays global (total queued jobs),
// which is what the 503 load-shedding path keys off.
//
// A popped job's fingerprint is held until its worker calls Release, and Pop
// passes over queued jobs whose fingerprint is held: identical submissions
// run one after another, never beside each other, so the second finds the
// first's result instead of solving it again. Uncacheable jobs (key "") are
// never held.
type Queue struct {
	mu       sync.Mutex
	runnable *sync.Cond // a push, a release or Close may have made Pop's wait moot
	lanes    map[string][]*Job
	ring     []string            // tenants with queued work, in round-robin order
	next     int                 // ring cursor
	held     map[string]struct{} // fingerprints popped and not yet released
	size     int
	cap      int
	closed   bool

	pushed  uint64
	dropped uint64
}

// NewQueue returns a queue holding at most capacity queued jobs in total.
func NewQueue(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	q := &Queue{cap: capacity, lanes: map[string][]*Job{}, held: map[string]struct{}{}}
	q.runnable = sync.NewCond(&q.mu)
	return q
}

// Push appends the job to its tenant's lane, failing with ErrQueueFull at
// capacity and ErrClosed after Close.
func (q *Queue) Push(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.size >= q.cap {
		q.dropped++
		return ErrQueueFull
	}
	j.enqueued = time.Now()
	lane := q.lanes[j.tenant]
	if len(lane) == 0 {
		q.ring = append(q.ring, j.tenant)
	}
	q.lanes[j.tenant] = append(lane, j)
	q.size++
	q.pushed++
	q.runnable.Signal()
	return nil
}

// Pop removes and returns the next runnable job — under tenant round-robin,
// the oldest job of the lane whose turn it is that no hold covers; a lane
// with nothing runnable passes its turn — and holds its fingerprint. It
// blocks while nothing queued is runnable. After Close holds no longer apply
// (the engine has canceled every job by then, so nothing popped is solved):
// Pop drains the remaining jobs without waiting, then reports false.
func (q *Queue) Pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for n := range q.ring {
			ri := (q.next + n) % len(q.ring)
			lane := q.lanes[q.ring[ri]]
			for i, j := range lane {
				if _, busy := q.held[j.key]; busy && !q.closed {
					continue
				}
				if j.key != "" {
					q.held[j.key] = struct{}{}
				}
				q.removeAt(ri, i)
				q.next = ri // an emptied lane gave its slot to the next one
				if len(lane) > 1 {
					q.next++
				}
				return j, true
			}
		}
		if q.closed {
			return nil, false
		}
		q.runnable.Wait()
	}
}

// Release ends the hold Pop placed on the fingerprint of a job whose worker
// is done with it, and wakes the parked workers: a queued twin is runnable
// now.
func (q *Queue) Release(key string) {
	if key == "" {
		return
	}
	q.mu.Lock()
	delete(q.held, key)
	q.mu.Unlock()
	q.runnable.Broadcast()
}

// removeAt takes job i out of the lane of ring slot ri, retiring the slot
// with its last job; a cursor past the slot moves down with it.
func (q *Queue) removeAt(ri, i int) {
	tenant := q.ring[ri]
	lane := q.lanes[tenant]
	copy(lane[i:], lane[i+1:])
	lane[len(lane)-1] = nil
	if lane = lane[:len(lane)-1]; len(lane) == 0 {
		delete(q.lanes, tenant)
		q.ring = append(q.ring[:ri], q.ring[ri+1:]...)
		if ri < q.next {
			q.next--
		}
	} else {
		q.lanes[tenant] = lane
	}
	q.size--
}

// Remove deletes a queued job by ID, reporting whether it was found. A
// canceled job that is still queued is removed here so it never occupies a
// worker.
func (q *Queue) Remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for ri, tenant := range q.ring {
		for i, j := range q.lanes[tenant] {
			if j.id == id {
				q.removeAt(ri, i)
				return true
			}
		}
	}
	return false
}

// Len reports the current depth across all tenant lanes.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// Close stops admissions and wakes all blocked Pops once the backlog
// drains.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.runnable.Broadcast()
}

// Stats reports lifetime admission counts: jobs accepted and jobs rejected
// at capacity.
func (q *Queue) Stats() (pushed, dropped uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pushed, q.dropped
}
