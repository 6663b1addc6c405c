package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/service/blob"
)

// stack is one running serving tier, all in this process over loopback HTTP:
// either a single engine with an fs blob store ("svc"), or a coordinator
// engine with a mem store and two one-shard workers ("fleet").
type stack struct {
	fleet  bool
	url    string // the job API clients talk to
	client *http.Client

	blobs *callLog        // nil unless the stack was started traced
	rt    *timedTransport // fleet, traced

	// workers maps a worker's base URL to its engine-facing server, so a
	// traced run can read the worker-side view of a dispatched job.
	workers []string
	stop    []func() // run in reverse order
}

type stackOpts struct {
	Fleet        bool
	Shards       int
	CacheEntries int  // 0 = service default
	Traced       bool // wrap the store and the coordinator's transport in timing decorators
	Dir          string
}

// startStack builds the stack and returns once it serves: /healthz answers
// 200 and, for a fleet, both workers are registered.
func startStack(o stackOpts) (*stack, error) {
	st := &stack{fleet: o.Fleet, client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 16,
	}}}
	st.stop = append(st.stop, st.client.CloseIdleConnections)
	fail := func(err error) (*stack, error) {
		st.close()
		return nil, err
	}

	var store blob.Store
	if o.Fleet {
		store = blob.NewMem()
	} else {
		fs, err := blob.NewFS(o.Dir)
		if err != nil {
			return fail(err)
		}
		store = fs
	}
	if o.Traced {
		st.blobs = &callLog{}
		store = &timedStore{inner: store, log: st.blobs}
	}

	opts := service.Options{Shards: o.Shards, ThreadsPerJob: 1, Blobs: store, CacheEntries: o.CacheEntries}
	sopts := service.ServerOptions{}
	var coord *fleet.Coordinator
	if o.Fleet {
		fo := fleet.Options{Blobs: store}
		if o.Traced {
			// The same connection limits the coordinator's default client
			// sets, plus the timing decorator.
			st.rt = &timedTransport{
				base: &http.Transport{
					DialContext:           (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
					ResponseHeaderTimeout: 10 * time.Second,
				},
				log:    &callLog{},
				bySeed: map[uint64]string{},
			}
			fo.Client = &http.Client{Transport: st.rt}
		}
		coord = fleet.NewCoordinator(fo)
		st.stop = append(st.stop, coord.Close)
		opts.Remote = coord
		sopts.Mounts = coord.Routes()
	}
	engine := service.New(opts)
	st.stop = append(st.stop, engine.Close)
	srv := httptest.NewServer(service.NewServerWith(engine, sopts))
	st.stop = append(st.stop, srv.Close)
	st.url = srv.URL

	if o.Fleet {
		ctx, cancel := context.WithCancel(context.Background())
		var agents sync.WaitGroup
		st.stop = append(st.stop, func() { cancel(); agents.Wait() })
		for i := 0; i < 2; i++ {
			we := service.New(service.Options{Shards: 1, ThreadsPerJob: 1})
			st.stop = append(st.stop, we.Close)
			ws := httptest.NewServer(service.NewServer(we))
			st.stop = append(st.stop, ws.Close)
			st.workers = append(st.workers, ws.URL)
			agent, err := fleet.NewAgent(fleet.AgentOptions{
				Coordinator: srv.URL, Self: ws.URL, Name: fmt.Sprintf("w%d", i), Engine: we,
			})
			if err != nil {
				return fail(err)
			}
			agents.Add(1)
			go func() {
				defer agents.Done()
				agent.Run(ctx) // returns only on cancel, after leaving the fleet
			}()
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := st.healthy()
		if ok && coord != nil {
			ok = len(coord.Workers()) == 2
		}
		if ok {
			return st, nil
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("stack did not become ready in 10s"))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (st *stack) healthy() bool {
	resp, err := st.client.Get(st.url + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// close stops every part of the stack and waits for it: agents leave,
// servers close, engines drain.
func (st *stack) close() {
	for i := len(st.stop) - 1; i >= 0; i-- {
		st.stop[i]()
	}
	st.stop = nil
}

// measureSetup records how long the workload's stack takes from nothing to
// its first result: start the stack (ready when /healthz answers 200 and, for
// a fleet, both workers are registered), send one job, decode its result;
// setupRepeats times, each between its own pair of calibration runs. The
// start alone is a few hundred microseconds of socket and goroutine set-up,
// too short to repeat within any bound (its median moved by 40% between
// runs); through the first job the number is a cold start a user would
// recognise, and work moved into construction still shows in it.
func (b *bench) measureSetup(o stackOpts, stream bool) {
	for i := 0; i < setupRepeats; i++ {
		dir, err := os.MkdirTemp(b.tmp, "setup-")
		if err != nil {
			b.fail("setup temp dir: %v", err)
			return
		}
		o.Dir = dir
		seed := mix(b.opts.Seed, 1<<47+uint64(i))
		b.settle()
		ca := b.calibrate(1, 0)
		t0 := time.Now()
		st, err := startStack(o)
		if err != nil {
			b.fail("stack start: %v", err)
			return
		}
		run := runJob(st, b.w.spec(seed), stream)
		d := time.Since(t0)
		run.fetchFinal(st)
		st.close()
		cb := b.calibrate(1, 0)

		b.attempt()
		ref, err := b.solve(b.w.config(seed, 1), 0, false)
		if err != nil {
			b.fail("setup job seed %d: bare solve: %v", seed, err)
			continue
		}
		if b.verifyJob(-3, &jobOp{svcOp: svcOp{Seed: seed, Cat: "new"}, Run: run}, ref.res) {
			b.add("setup_s", b.cal(d, ca, cb))
		}
	}
}
