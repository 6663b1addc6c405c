// Package service turns the single-shot neutral solver into a long-running
// simulation service: a bounded fair-share job queue (this file), a sharded
// worker pool whose every started job takes one path — start, acquire the
// worker's core.Simulation, run, settle (worker.go) — a result store keyed
// by the canonical config fingerprint (store.go) with an optional blob-store
// persistent tier (blob/), per-tenant authentication and admission control
// (auth.go, quota.go), and an HTTP/JSON front end with streaming progress
// (api.go).
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

// Queue is a bounded, tenant-fair job queue. Push never blocks — a full
// queue rejects, pushing back-pressure to the client — while Pop blocks
// until a job arrives or the queue is closed and drained.
//
// Jobs are held in per-tenant FIFO lanes and Pop round-robins across the
// lanes with queued work, so order is FIFO within a tenant but interleaved
// across tenants: a tenant that floods the queue delays its own backlog,
// while another tenant's single job is picked up after at most one
// round-robin turn. The capacity bound stays global (total queued jobs),
// which is what the 503 load-shedding path keys off.
type Queue struct {
	mu       sync.Mutex
	nonEmpty *sync.Cond
	lanes    map[string][]*Job
	ring     []string // tenants with queued work, in round-robin order
	next     int      // ring cursor
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
	q := &Queue{cap: capacity, lanes: map[string][]*Job{}}
	q.nonEmpty = sync.NewCond(&q.mu)
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
	q.nonEmpty.Signal()
	return nil
}

// Pop removes and returns the next job under tenant round-robin, blocking
// while the queue is empty. After Close it drains the remaining jobs, then
// reports false.
func (q *Queue) Pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 {
		if q.closed {
			return nil, false
		}
		q.nonEmpty.Wait()
	}
	q.next %= len(q.ring)
	tenant := q.ring[q.next]
	lane := q.lanes[tenant]
	j := lane[0]
	lane[0] = nil
	lane = lane[1:]
	if len(lane) == 0 {
		delete(q.lanes, tenant)
		q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
		// The cursor now points at the next tenant already; wrap handled
		// on the next Pop.
	} else {
		q.lanes[tenant] = lane
		q.next++
	}
	q.size--
	return j, true
}

// Remove deletes a queued job by ID, reporting whether it was found. A
// canceled job that is still queued is removed here so it never occupies a
// worker.
func (q *Queue) Remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for tenant, lane := range q.lanes {
		for i, j := range lane {
			if j.id != id {
				continue
			}
			lane = append(lane[:i], lane[i+1:]...)
			if len(lane) == 0 {
				delete(q.lanes, tenant)
				for ri, name := range q.ring {
					if name == tenant {
						q.ring = append(q.ring[:ri], q.ring[ri+1:]...)
						if ri < q.next {
							q.next--
						}
						break
					}
				}
			} else {
				q.lanes[tenant] = lane
			}
			q.size--
			return true
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
	q.nonEmpty.Broadcast()
}

// Stats reports lifetime admission counts: jobs accepted and jobs rejected
// at capacity.
func (q *Queue) Stats() (pushed, dropped uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pushed, q.dropped
}
