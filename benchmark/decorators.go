package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/service/blob"
)

// call is one timed operation seen by a decorator: a blob-store method or a
// coordinator->worker HTTP exchange.
type call struct {
	Op         string // blob: put/get/delete/list; fleet: dispatch/watch/snapshot_pull/result_fetch/status/other
	Key        string // blob key, or worker base URL + "/" + remote job id
	Start, End time.Time
	Bytes      int
	Err        bool
}

// callLog collects calls from any goroutine.
type callLog struct {
	mu    sync.Mutex
	calls []call
}

func (l *callLog) add(c call) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

// take returns and removes the calls whose key satisfies match.
func (l *callLog) take(match func(key string) bool) []call {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []call
	rest := l.calls[:0]
	for _, c := range l.calls {
		if match(c.Key) {
			out = append(out, c)
		} else {
			rest = append(rest, c)
		}
	}
	l.calls = rest
	return out
}

// timedStore measures a blob.Store from outside: it is handed to
// service.Options.Blobs (and fleet.Options.Blobs) in place of the real store,
// so blob.* metrics need no change to the program.
type timedStore struct {
	inner blob.Store
	log   *callLog
}

func (s *timedStore) Put(key string, data []byte) error {
	start := time.Now()
	err := s.inner.Put(key, data)
	s.log.add(call{Op: "put", Key: key, Start: start, End: time.Now(), Bytes: len(data), Err: err != nil})
	return err
}

func (s *timedStore) Get(key string) ([]byte, error) {
	start := time.Now()
	data, err := s.inner.Get(key)
	s.log.add(call{Op: "get", Key: key, Start: start, End: time.Now(), Bytes: len(data), Err: err != nil})
	return data, err
}

func (s *timedStore) List(prefix string) ([]string, error) {
	start := time.Now()
	keys, err := s.inner.List(prefix)
	s.log.add(call{Op: "list", Key: prefix, Start: start, End: time.Now(), Err: err != nil})
	return keys, err
}

func (s *timedStore) Delete(key string) error {
	start := time.Now()
	err := s.inner.Delete(key)
	s.log.add(call{Op: "delete", Key: key, Start: start, End: time.Now(), Err: err != nil})
	return err
}

// timedTransport measures the coordinator's requests to its workers from
// outside: it is the Transport of fleet.Options.Client. A call ends when the
// response body has been read to the end or closed, so a snapshot pull is
// timed over its whole transfer and an SSE watch over its whole life.
type timedTransport struct {
	base http.RoundTripper
	log  *callLog

	mu     sync.Mutex
	bySeed map[uint64]string // job seed -> worker base URL + "/" + remote job id
}

// remoteOf reports where the job with this seed was dispatched.
func (t *timedTransport) remoteOf(seed uint64) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k, ok := t.bySeed[seed]
	return k, ok
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	base := req.URL.Scheme + "://" + req.URL.Host
	op, id := routeOf(req.Method, req.URL.Path)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.log.add(call{Op: op, Key: base + "/" + id, Start: start, End: time.Now(), Err: true})
		return nil, err
	}
	if op == "dispatch" {
		// The reply names the remote job; the request names the seed. Both
		// are small JSON documents, so buffering them is free, and together
		// they join every later call on this remote job to the client's op.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var jv struct {
			ID string `json:"id"`
		}
		var spec struct {
			Seed *uint64 `json:"seed"`
		}
		if rerr == nil && json.Unmarshal(body, &jv) == nil && req.GetBody != nil {
			if rb, gerr := req.GetBody(); gerr == nil {
				if json.NewDecoder(rb).Decode(&spec) == nil && spec.Seed != nil {
					t.mu.Lock()
					t.bySeed[*spec.Seed] = base + "/" + jv.ID
					t.mu.Unlock()
				}
				rb.Close()
			}
		}
		t.log.add(call{Op: op, Key: base + "/" + jv.ID, Start: start, End: time.Now(), Bytes: len(body), Err: resp.StatusCode >= 300})
		return resp, nil
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int) {
		t.log.add(call{Op: op, Key: base + "/" + id, Start: start, End: time.Now(), Bytes: n, Err: resp.StatusCode >= 300})
	}}
	return resp, nil
}

// routeOf classifies a worker request by method and path.
func routeOf(method, path string) (op, jobID string) {
	parts := strings.Split(strings.Trim(path, "/"), "/") // v1 jobs {id} [what]
	if len(parts) < 2 || parts[0] != "v1" || parts[1] != "jobs" {
		return "other", ""
	}
	switch {
	case len(parts) == 2 && method == http.MethodPost:
		return "dispatch", ""
	case len(parts) == 3 && method == http.MethodGet:
		return "status", parts[2]
	case len(parts) == 4 && parts[3] == "stream":
		return "watch", parts[2]
	case len(parts) == 4 && parts[3] == "snapshot":
		return "snapshot_pull", parts[2]
	case len(parts) == 4 && parts[3] == "result":
		return "result_fetch", parts[2]
	case len(parts) >= 3:
		return "other", parts[2]
	}
	return "other", ""
}

// timedBody reports once, at EOF or Close, how many bytes were read.
type timedBody struct {
	io.ReadCloser
	n    int
	once sync.Once
	done func(n int)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}
