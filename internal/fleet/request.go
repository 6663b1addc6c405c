package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// requester is the fleet's one request path, the coordinator's to its
// workers and the agent's to its coordinator: JSON in, a read of the answer
// out, each attempt under requestTimeout, and transient failures (transport
// errors, 5xx, 429, an answer that fails to read) retried on a jittered
// doubling backoff. The coordinator's backoff is its lease's: see
// Coordinator.req.
type requester struct {
	client *http.Client
	// first is the delay before the first retry; it doubles per retry up to
	// cap, and every delay is jittered ±20 %.
	first, cap time.Duration
	// attempts bounds the calls, first included; 0 is until ctx ends.
	attempts int
	// retries counts every retry scheduled; nil counts none.
	retries *telemetry.Counter
}

// errExhausted wraps the last failure of a request that used up its attempts.
var errExhausted = errors.New("fleet: out of attempts")

// delay is the backoff after the given 0-based failed attempt, for a jitter
// draw in [0, 1): first·2^attempt capped at cap, times 0.8 + 0.4·draw.
func (r requester) delay(attempt int, draw float64) time.Duration {
	d := r.first
	for ; attempt > 0 && d < r.cap; attempt-- {
		d *= 2
	}
	return time.Duration(float64(min(d, r.cap)) * (0.8 + 0.4*draw))
}

// do sends in (JSON; nil for no body) to url and hands a 2xx answer to read,
// until that succeeds, the answer is a refusal retrying cannot change (a 4xx
// other than 429, returned as its *statusError), ctx ends (ctx.Err()), or the
// attempts run out (the last error, wrapped with errExhausted). A 429's or
// 503's Retry-After stretches the next delay to at least that long.
func (r requester) do(ctx context.Context, method, url string, in any, read func(*http.Response) error) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for attempt := 0; ; attempt++ {
		err := r.exchange(req, read)
		var se *statusError
		if err == nil || errors.As(err, &se) && se.permanent() {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if r.attempts > 0 && attempt+1 >= r.attempts {
			return fmt.Errorf("%w (%d): %w", errExhausted, attempt+1, err)
		}
		d := r.delay(attempt, rand.Float64())
		if se != nil {
			d = max(d, se.after)
		}
		if r.retries != nil {
			r.retries.Inc()
		}
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}

// exchange makes one attempt of req on a fresh copy of its body. The
// deadline is requestTimeout, not a share of any lease: a result fetch under
// a short test lease and the race detector outlasts a tenth of a second.
func (r requester) exchange(req *http.Request, read func(*http.Response) error) error {
	ctx, cancel := context.WithTimeout(req.Context(), requestTimeout)
	defer cancel()
	req = req.Clone(ctx)
	req.Body, _ = req.GetBody() // a bytes.Reader's GetBody cannot fail
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkResponse(resp); err != nil {
		io.Copy(io.Discard, resp.Body)
		return err
	}
	if err := read(resp); err != nil {
		// A payload that fails to read or parse is a broken transfer, not
		// a broken request: retry it.
		return fmt.Errorf("fleet: read %s: %w", req.URL, err)
	}
	return nil
}

// decode reads a JSON answer into out.
func decode(out any) func(*http.Response) error {
	return func(resp *http.Response) error { return json.NewDecoder(resp.Body).Decode(out) }
}

// statusError is an answer outside 2xx; after is the Retry-After a 429 or
// 503 carried.
type statusError struct {
	code   int
	status string
	after  time.Duration
}

func (e *statusError) Error() string { return "fleet: " + e.status }

// permanent reports a refusal of the request itself, which retrying cannot
// change: a 4xx other than 429.
func (e *statusError) permanent() bool {
	return e.code >= 400 && e.code < 500 && e.code != http.StatusTooManyRequests
}

// checkResponse is nil for a 2xx answer and its *statusError otherwise. It
// reads only the status line and headers; the caller owns the body.
func checkResponse(resp *http.Response) error {
	if resp.StatusCode < 300 {
		return nil
	}
	se := &statusError{code: resp.StatusCode, status: resp.Status}
	if se.code == http.StatusTooManyRequests || se.code == http.StatusServiceUnavailable {
		se.after = parseRetryAfter(resp.Header.Get("Retry-After"))
	}
	return se
}

// parseRetryAfter reads the two RFC 9110 Retry-After forms, delay seconds
// and an HTTP date; 0 for neither.
func parseRetryAfter(v string) time.Duration {
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		return max(time.Until(t), 0)
	}
	return 0
}
