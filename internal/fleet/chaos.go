package fleet

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Chaos is the fleet's deterministic fault-injection layer: an
// http.RoundTripper that, keyed off a seeded RNG, drops requests, delays
// them, synthesises 500s, and truncates response bodies mid-read. As the
// transport of a coordinator's (or agent's) HTTP client it exercises every
// retry, reschedule and duplicate-completion path without real network
// failures — the same layer the fault-injection tests and the -chaos flag
// drive.
//
// Determinism: all probability draws come from one seeded math/rand
// sequence behind a mutex, so a fixed seed and a fixed request order
// reproduce the exact same fault schedule.
type Chaos struct {
	// Drop is the probability a request errors without a response. Half
	// the drops fail before the request reaches the server, half after
	// the server processed it (the response is lost) — the second kind is
	// what makes duplicate completions and idempotency bugs reachable.
	Drop float64
	// Delay is the probability a request is held for DelayDur first.
	Delay    float64
	DelayDur time.Duration
	// Err500 is the probability of a synthesised 500 response; the
	// request never reaches the server, so it is safe to retry.
	Err500 float64
	// Partial is the probability a response body is truncated after
	// PartialBytes (default 1024) with an unexpected-EOF error.
	Partial      float64
	PartialBytes int
	// Base performs the real requests. nil means http.DefaultTransport.
	Base http.RoundTripper

	mu  sync.Mutex
	rng *rand.Rand
}

// NewChaos seeds a fault injector; mutate the probability fields before
// first use.
func NewChaos(seed int64) *Chaos {
	return &Chaos{rng: rand.New(rand.NewSource(seed))}
}

// draw returns one uniform [0,1) variate from the seeded sequence.
func (c *Chaos) draw() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(0))
	}
	return c.rng.Float64()
}

// errDropped is the injected transport failure.
type errDropped struct{ after bool }

func (e errDropped) Error() string {
	if e.after {
		return "chaos: response dropped (request was processed)"
	}
	return "chaos: request dropped"
}

// RoundTrip implements http.RoundTripper with the configured faults.
func (c *Chaos) RoundTrip(req *http.Request) (*http.Response, error) {
	base := c.Base
	if base == nil {
		base = http.DefaultTransport
	}
	if c.Delay > 0 && c.draw() < c.Delay {
		d := c.DelayDur
		if d <= 0 {
			d = 50 * time.Millisecond
		}
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-req.Context().Done():
			t.Stop()
			return nil, req.Context().Err()
		}
	}
	if c.Err500 > 0 && c.draw() < c.Err500 {
		return &http.Response{
			StatusCode: http.StatusInternalServerError,
			Status:     "500 chaos: injected server error",
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{},
			Body:    io.NopCloser(strings.NewReader(`{"error":"chaos: injected server error"}`)),
			Request: req,
		}, nil
	}
	if c.Drop > 0 && c.draw() < c.Drop {
		// Half the drops lose the request, half lose only the response —
		// the caller cannot tell which, exactly like a real network.
		if c.draw() < 0.5 {
			return nil, errDropped{after: false}
		}
		if resp, err := base.RoundTrip(req); err == nil {
			resp.Body.Close()
		}
		return nil, errDropped{after: true}
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if c.Partial > 0 && c.draw() < c.Partial {
		n := c.PartialBytes
		if n <= 0 {
			n = 1024
		}
		resp.Body = &truncatedBody{rc: resp.Body, remain: n}
	}
	return resp, nil
}

// truncatedBody yields at most remain bytes, then fails with unexpected
// EOF — a mid-transfer connection loss, not a clean end of body.
type truncatedBody struct {
	rc     io.ReadCloser
	remain int
}

func (t *truncatedBody) Read(p []byte) (int, error) {
	if t.remain <= 0 {
		return 0, fmt.Errorf("chaos: response truncated: %w", io.ErrUnexpectedEOF)
	}
	if len(p) > t.remain {
		p = p[:t.remain]
	}
	n, err := t.rc.Read(p)
	t.remain -= n
	if err == io.EOF {
		// The body really ended within the cap: not a truncation.
		return n, err
	}
	if t.remain <= 0 && err == nil {
		err = fmt.Errorf("chaos: response truncated: %w", io.ErrUnexpectedEOF)
	}
	return n, err
}

func (t *truncatedBody) Close() error { return t.rc.Close() }

// ParseChaos builds a Chaos from the -chaos flag syntax: comma-separated
// key=value pairs, e.g.
//
//	drop=0.1,delay=0.05:200ms,err500=0.02,partial=0.01,seed=42
//
// Probabilities are in [0,1]; delay takes an optional :duration suffix;
// seed fixes the RNG (default 1). An empty spec returns nil (no chaos).
func ParseChaos(spec string) (*Chaos, error) {
	if spec == "" {
		return nil, nil
	}
	c := NewChaos(1)
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("fleet: chaos term %q is not key=value", kv)
		}
		prob := func(s string) (float64, error) {
			p, err := strconv.ParseFloat(s, 64)
			if err != nil || p < 0 || p > 1 {
				return 0, fmt.Errorf("fleet: chaos %s=%q is not a probability in [0,1]", k, s)
			}
			return p, nil
		}
		var err error
		switch k {
		case "drop":
			c.Drop, err = prob(v)
		case "delay":
			p, dur, hasDur := strings.Cut(v, ":")
			if c.Delay, err = prob(p); err == nil && hasDur {
				if c.DelayDur, err = time.ParseDuration(dur); err != nil {
					err = fmt.Errorf("fleet: chaos delay duration %q: %w", dur, err)
				}
			}
		case "err500":
			c.Err500, err = prob(v)
		case "partial":
			c.Partial, err = prob(v)
		case "seed":
			var seed int64
			if seed, err = strconv.ParseInt(v, 10, 64); err != nil {
				err = fmt.Errorf("fleet: chaos seed %q: %w", v, err)
			} else {
				c.rng = rand.New(rand.NewSource(seed))
			}
		default:
			err = fmt.Errorf("fleet: unknown chaos key %q", k)
		}
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}
