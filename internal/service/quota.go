package service

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// bucket is a token bucket: tokens refill continuously at rate per second
// up to burst, and each admission spends one token. Rate 0 disables the
// bucket (always admits). Guarded by the owning Auth's mutex.
type bucket struct {
	rate   float64 // tokens per second; 0 = unlimited
	burst  float64
	tokens float64
	last   time.Time
}

// init sizes the bucket from a tenant record: an unset burst defaults to
// max(1, ceil(rate)) so a tenant can always spend at least one token, and
// the bucket starts full so a fresh tenant's first request never waits.
func (b *bucket) init(rate, burst float64) {
	b.rate = rate
	b.burst = burst
	if b.burst <= 0 {
		b.burst = math.Max(1, math.Ceil(rate))
	}
	b.tokens = b.burst
}

// take spends n tokens if available. On refusal it reports how long until
// n tokens will have refilled — the Retry-After the client is told. n must
// not exceed burst: the bucket never holds more, so admit refuses such a
// request before it gets here.
func (b *bucket) take(n float64, now time.Time) (ok bool, retryAfter time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	if !b.last.IsZero() {
		b.tokens = math.Min(b.burst, b.tokens+now.Sub(b.last).Seconds()*b.rate)
	}
	b.last = now
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	return false, time.Duration((n - b.tokens) / b.rate * float64(time.Second))
}

// admit is the handler-side admission gate for job-creating endpoints:
// it spends n tokens from the requesting tenant's rate budget and, when
// the tenant is over budget, answers 429 with a Retry-After computed from
// the bucket's refill rate. A request for more tokens than the bucket holds
// would wait forever, so it is answered 413 with no Retry-After. Returns
// false when the request was already answered.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, n int) bool {
	st := tenantOf(r.Context())
	if st == nil || st == anonymous {
		return true
	}
	// rate and burst are fixed by NewAuth, so they are read without the lock.
	if st.bucket.rate > 0 && float64(n) > st.bucket.burst {
		s.writeError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Errorf("service: %d jobs in one request exceed tenant %s's burst of %g", n, st.Name, st.bucket.burst))
		return false
	}
	s.auth.mu.Lock()
	ok, wait := st.bucket.take(float64(n), s.auth.now())
	s.auth.mu.Unlock()
	if ok {
		return true
	}
	setRetryAfter(w, wait)
	s.engine.metrics.tenantShed.With(st.Name, "rate").Inc()
	s.writeError(w, r, http.StatusTooManyRequests,
		fmt.Errorf("service: tenant %s over rate limit (%g jobs/s)", st.Name, st.Rate))
	return false
}

// setRetryAfter writes a Retry-After header of at least one second —
// integer seconds, rounded up, as HTTP requires.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// ShedDelay estimates how long a shed client should wait before retrying:
// the queue backlog per worker (plus the job each is on) times the
// moving-average job service time — i.e. roughly when a queue slot will have
// drained. Clamped to [1s, 2m] so a cold engine (no average yet) and a deep
// backlog both give usable guidance. This is the Retry-After on queue-full
// and shutdown 503s; rate-limit 429s use the exact bucket refill time
// instead.
func (e *Engine) ShedDelay() time.Duration {
	avg := time.Duration(e.avgRunNS.Load())
	if avg <= 0 {
		avg = time.Second
	}
	d := time.Duration(e.queue.Len()/e.opts.Shards+1) * avg
	return min(max(d, time.Second), 2*time.Minute)
}

// observeRunDuration folds one completed solve into the moving average
// ShedDelay prices queue drain with (EWMA, α=¼).
func (e *Engine) observeRunDuration(d time.Duration) {
	for {
		old := e.avgRunNS.Load()
		next := int64(d)
		if old > 0 {
			next = old + (int64(d)-old)/4
		}
		if e.avgRunNS.CompareAndSwap(old, next) {
			return
		}
	}
}
