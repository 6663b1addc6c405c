package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// answering is a requester transport that answers every request with the
// given status and Retry-After header ("" for none), counting the calls.
func answering(code int, retryAfter string, calls *atomic.Int64) *http.Client {
	return &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		calls.Add(1)
		h := http.Header{}
		if retryAfter != "" {
			h.Set("Retry-After", retryAfter)
		}
		return &http.Response{
			StatusCode: code, Status: fmt.Sprintf("%d %s", code, http.StatusText(code)),
			Header: h, Body: io.NopCloser(strings.NewReader("{}")), Request: req,
		}, nil
	})}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

func discard(*http.Response) error { return nil }

// TestFleetPacingFollowsLeaseTTL pins the coordinator's backoff as a pure
// function of its lease TTL, the attempt and the jitter draw. At the default
// 10s it is 50/100/200/400ms ±20 %, capped at 2s, over five attempts; a
// 200ms test lease retries from 1ms to 40ms.
func TestFleetPacingFollowsLeaseTTL(t *testing.T) {
	pacing := func(ttl time.Duration) requester {
		c := NewCoordinator(Options{LeaseTTL: ttl})
		defer c.Close()
		return c.req
	}
	r := pacing(0) // the default TTL
	if r.attempts != 5 {
		t.Errorf("attempts = %d, want 5", r.attempts)
	}
	ms := time.Millisecond
	for attempt, want := range []time.Duration{50 * ms, 100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 2000 * ms, 2000 * ms} {
		if got := r.delay(attempt, 0.5); got != want {
			t.Errorf("10s lease: delay(%d) = %v, want %v", attempt, got, want)
		}
		if lo, hi := r.delay(attempt, 0), r.delay(attempt, 1); lo != want*8/10 || hi != want*12/10 {
			t.Errorf("10s lease: delay(%d) jitters over [%v, %v], want [%v, %v]", attempt, lo, hi, want*8/10, want*12/10)
		}
	}
	r = pacing(200 * ms)
	if first, last := r.delay(0, 0.5), r.delay(10, 0.5); first != ms || last != 40*ms {
		t.Errorf("200ms lease: delays %v to %v, want 1ms to 40ms", first, last)
	}
}

// TestDelaySchedule pins the geometric growth from first, capped at cap, at
// the midpoint draw (no jitter).
func TestDelaySchedule(t *testing.T) {
	r := requester{first: 10 * time.Millisecond, cap: 80 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond, 80 * time.Millisecond,
	}
	for attempt, w := range want {
		if got := r.delay(attempt, 0.5); got != w {
			t.Errorf("delay(%d) = %v, want %v", attempt, got, w)
		}
	}
}

// TestDelayJitterDeterministic pins the ±20 % jitter band against the draw:
// draw 0 gives 0.8·delay, draw 1 gives 1.2·delay, the midpoint the delay.
func TestDelayJitterDeterministic(t *testing.T) {
	r := requester{first: 100 * time.Millisecond, cap: time.Second}
	for _, tc := range []struct {
		draw float64
		want time.Duration
	}{{0, 80 * time.Millisecond}, {0.5, 100 * time.Millisecond}, {1, 120 * time.Millisecond}} {
		if got := r.delay(0, tc.draw); got != tc.want {
			t.Errorf("draw %v: delay(0) = %v, want %v", tc.draw, got, tc.want)
		}
	}
}

// TestDoAttemptBudget: attempts bounds the calls, every retry is counted, and
// the final error wraps both errExhausted and the last failure.
func TestDoAttemptBudget(t *testing.T) {
	var calls atomic.Int64
	retries := telemetry.NewRegistry().Counter("retries", "")
	r := requester{client: answering(500, "", &calls), first: time.Microsecond, cap: 4 * time.Microsecond,
		attempts: 3, retries: retries}
	err := r.do(context.Background(), http.MethodGet, "http://worker/x", nil, discard)
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
	var se *statusError
	if !errors.Is(err, errExhausted) || !errors.As(err, &se) || se.code != 500 {
		t.Fatalf("err = %v, want errExhausted wrapping the 500", err)
	}
	if got := retries.Value(); got != 2 {
		t.Errorf("retries counted = %v, want 2", got)
	}
}

// TestDoPermanent: a refusal (a 4xx other than 429) stops at once and is
// returned as its status.
func TestDoPermanent(t *testing.T) {
	var calls atomic.Int64
	r := requester{client: answering(400, "", &calls), first: time.Microsecond}
	err := r.do(context.Background(), http.MethodPost, "http://worker/x", map[string]int{"a": 1}, discard)
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", calls.Load())
	}
	var se *statusError
	if !errors.As(err, &se) || se.code != 400 || errors.Is(err, errExhausted) {
		t.Fatalf("err = %v, want the 400 itself", err)
	}
}

// TestDoRetryAfter: a server's Retry-After longer than the computed backoff
// wins; a shorter one does not shorten it. Each case is cut by a deadline
// well inside the longer of the two delays, so one call is all it makes.
func TestDoRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		code       int
		retryAfter string
		first      time.Duration
	}{
		{503, "1", time.Microsecond}, // the hint outlasts the backoff
		{429, "0", time.Hour},        // the backoff outlasts the hint
	} {
		var calls atomic.Int64
		r := requester{client: answering(tc.code, tc.retryAfter, &calls), first: tc.first, cap: time.Hour}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		err := r.do(ctx, http.MethodGet, "http://worker/x", nil, discard)
		cancel()
		if calls.Load() != 1 || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%d with Retry-After %s: %d calls, err %v; want 1 call cut by the deadline",
				tc.code, tc.retryAfter, calls.Load(), err)
		}
	}
}

// TestDoContextCancel returns the context error mid-sleep.
func TestDoContextCancel(t *testing.T) {
	var calls atomic.Int64
	r := requester{client: answering(500, "", &calls), first: time.Hour, cap: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	if err := r.do(ctx, http.MethodGet, "http://worker/x", nil, discard); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCheckResponse classifies statuses and reads both Retry-After forms.
func TestCheckResponse(t *testing.T) {
	mk := func(code int, retryAfter string) *http.Response {
		h := http.Header{}
		if retryAfter != "" {
			h.Set("Retry-After", retryAfter)
		}
		return &http.Response{StatusCode: code, Status: fmt.Sprintf("%d x", code), Header: h}
	}
	classify := func(code int, retryAfter string) (permanent bool, after time.Duration) {
		t.Helper()
		var se *statusError
		if !errors.As(checkResponse(mk(code, retryAfter)), &se) {
			t.Fatalf("%d: no status error", code)
		}
		return se.permanent(), se.after
	}
	if err := checkResponse(mk(200, "")); err != nil {
		t.Fatalf("200: %v", err)
	}
	if perm, after := classify(503, "2"); perm || after != 2*time.Second {
		t.Fatalf("503: permanent %v, Retry-After %v; want transient, 2s", perm, after)
	}
	if perm, after := classify(429, time.Now().Add(time.Hour).UTC().Format(http.TimeFormat)); perm || after < 59*time.Minute {
		t.Fatalf("429: permanent %v, Retry-After %v; want transient, ~1h", perm, after)
	}
	if perm, _ := classify(404, ""); !perm {
		t.Fatal("404 should be permanent")
	}
	if perm, after := classify(500, "2"); perm || after != 0 {
		t.Fatalf("500: permanent %v, Retry-After %v; want transient, none", perm, after)
	}
}
