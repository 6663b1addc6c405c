package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/service/blob"
)

// TestCoordinatorPullsOncePerNewerCheckpoint scripts a worker's SSE stream:
// a burst of step events written in one flush — what the worker's 100 ms
// sampler delivers for any job with sub-tick steps — costs the coordinator one
// snapshot pull and one durable put, not one per event, because after the
// first pull it holds the boundary the rest advertise; a later flush that
// advertises a newer checkpoint costs exactly one more. Every step is still
// forwarded.
func TestCoordinatorPullsOncePerNewerCheckpoint(t *testing.T) {
	const jobView = `{"id":"job-000001","state":%q,"error":%q,"progress":0,"step":0,"steps":8,"submitted":"2026-01-01T00:00:00Z"}`
	// The boundary of the checkpoint the scripted worker serves: it has moved
	// on to 4 by the time its first burst is read, to 7 by the second.
	var served atomic.Int64
	second, finish := make(chan struct{}), make(chan struct{})
	burst := func(w http.ResponseWriter, first int, advertised ...int) {
		for i, ckpt := range advertised {
			fmt.Fprintf(w, "id: s%dr0\nevent: step\ndata: {\"step\":%d,\"steps\":8,\"checkpoint\":%d}\n\n",
				first+i+1, first+i, ckpt)
		}
		w.(http.Flusher).Flush()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, jobView, "running", "")
	})
	mux.HandleFunc("GET /v1/jobs/job-000001/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		served.Store(4)
		burst(w, 0, 1, 1, 1, 4, 4)
		select {
		case <-second:
		case <-r.Context().Done():
			return
		}
		served.Store(7)
		burst(w, 5, 4, 7, 7)
		select {
		case <-finish:
		case <-r.Context().Done():
			return
		}
		// Ending the shard as failed spares the script a result document.
		fmt.Fprintf(w, "event: done\ndata: "+jobView+"\n\n", "failed", "scripted end")
	})
	mux.HandleFunc("GET /v1/jobs/job-000001/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Neutral-Step", strconv.FormatInt(served.Load(), 10))
		w.Write([]byte("snapshot bytes"))
	})
	worker := httptest.NewServer(mux)
	defer worker.Close()

	store := &countingStore{Store: blob.NewMem()}
	c := newClusterWith(t, Options{LeaseTTL: time.Minute}, service.Options{Shards: 2, Blobs: store})
	if err := c.postJSON("/v1/fleet/register", registerRequest{Worker: "scripted", URL: worker.URL}, nil); err != nil {
		t.Fatal(err)
	}

	j, err := c.engine.Submit(fastConfig(77))
	if err != nil {
		t.Fatal(err)
	}
	forwarded := func(n int) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for len(j.Steps()) < n {
			if st := j.Status(); st.State.Terminal() {
				t.Fatalf("shard ended early: %v", st.Err)
			}
			if time.Now().After(deadline) {
				t.Fatal("step events not forwarded in time")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	counts := func(when string, want int) {
		t.Helper()
		if got := int(c.coord.metrics.snapshotPulls.Value()); got != want {
			t.Errorf("%s: fleet_snapshot_pulls_total = %d, want %d", when, got, want)
		}
		if got := int(store.puts.Load()); got != want {
			t.Errorf("%s: %d checkpoint puts into the engine's store, want %d", when, got, want)
		}
	}

	forwarded(5)
	counts("after a burst of 5 step events", 1)
	close(second)
	forwarded(8)
	counts("after a later burst advertising a newer checkpoint", 2)
	close(finish)
	waitDone(t, j, 30*time.Second)
	if err := j.Status().Err; err == nil || !strings.Contains(err.Error(), "scripted end") {
		t.Fatalf("shard ended with %v, want the scripted failure", err)
	}
}
