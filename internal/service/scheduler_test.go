package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// popWait bounds every wait on something the scheduler owes the test, so a
// lost wakeup fails the test instead of hanging it.
const popWait = 10 * time.Second

// popAsync pops on a goroutine of its own; the result (nil once the queue
// is closed and drained) arrives on the returned channel.
func popAsync(q *Queue) <-chan *Job {
	ch := make(chan *Job, 1)
	go func() {
		j, _ := q.Pop()
		ch <- j
	}()
	return ch
}

func jobID(j *Job) string {
	if j == nil {
		return "<none>"
	}
	return j.id
}

// TestQueueHold walks the hold through its cases by hand: a held lane head
// passes the turn to the next tenant, the rest of its lane runs past it,
// removing it leaves the hold alone, and its twin is the first of the lane
// out after the release.
func TestQueueHold(t *testing.T) {
	q := NewQueue(8)
	for _, j := range []*Job{
		{id: "a1", tenant: "a", key: "k"},
		{id: "a2", tenant: "a", key: "k"},
		{id: "a3", tenant: "a", key: "k"},
		{id: "a4", tenant: "a", key: "x"},
		{id: "b1", tenant: "b", key: "y"},
	} {
		if err := q.Push(j); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []string{"a1", "b1", "a4"} {
		if j, ok := q.Pop(); !ok || j.id != want {
			t.Fatalf("pop %d = %s, want %s", i, jobID(j), want)
		}
	}
	await := func(parked <-chan *Job, want string) {
		t.Helper()
		select {
		case j := <-parked:
			if j.id != want {
				t.Fatalf("popped %s, want %s", j.id, want)
			}
		case <-time.After(popWait):
			t.Fatalf("the parked pop never woke for %s", want)
		}
	}
	parked := popAsync(q) // a2 and a3 are queued, both behind a1's hold
	if !q.Remove("a2") {
		t.Fatal("a job waiting on a hold could not be removed")
	}
	q.Push(&Job{id: "a5", tenant: "a", key: "z"})
	await(parked, "a5")
	parked = popAsync(q)
	select {
	case j := <-parked:
		t.Fatalf("popped %s while its key was held", j.id)
	default:
	}
	q.Release("k")
	await(parked, "a3")
	// a3 holds k now. The next twin waits at the head of the lane, and is
	// the first out once the hold ends.
	q.Push(&Job{id: "a6", tenant: "a", key: "k"})
	q.Push(&Job{id: "a7", tenant: "a", key: "w"})
	q.Push(&Job{id: "a8", tenant: "a", key: "v"})
	await(popAsync(q), "a7")
	q.Release("k")
	await(popAsync(q), "a6")
	await(popAsync(q), "a8")
}

// queueModel is the reference the queue is checked against: the queued jobs
// as one list in push order, the tenants with queued work in the order their
// lanes opened, whose turn it is, and the keys out.
type queueModel struct {
	queued []*Job
	ring   []string
	turn   int
	out    map[string]bool
	closed bool
}

// take removes queued[i], closing its tenant's lane with its last job.
func (m *queueModel) take(i int) *Job {
	j := m.queued[i]
	m.queued = append(m.queued[:i:i], m.queued[i+1:]...)
	for _, o := range m.queued {
		if o.tenant == j.tenant {
			return j
		}
	}
	for ri, name := range m.ring {
		if name == j.tenant {
			m.ring = append(m.ring[:ri:ri], m.ring[ri+1:]...)
			if ri < m.turn {
				m.turn--
			}
		}
	}
	return j
}

// pop is what Pop must return now; nil when it must block (or, closed,
// report false).
func (m *queueModel) pop() *Job {
	for n := range m.ring {
		ri := (m.turn + n) % len(m.ring)
		tenant := m.ring[ri]
		for i, j := range m.queued {
			if j.tenant != tenant || (m.out[j.key] && !m.closed) {
				continue
			}
			m.turn = ri + 1
			before := len(m.ring)
			m.take(i)
			if len(m.ring) < before {
				m.turn = ri
			}
			if j.key != "" {
				m.out[j.key] = true
			}
			return j
		}
	}
	return nil
}

// TestQueueModel drives random Push/Pop/Release/Remove/Close sequences over
// 1–4 tenants and a small key alphabet and compares every Pop with the
// model's: tenant round-robin, FIFO within a lane among the jobs no hold
// covers, a block exactly when nothing queued is runnable, and after Close
// every queued job out once, holds or no holds, then false.
func TestQueueModel(t *testing.T) {
	keys := []string{"", "k1", "k2", "k3"}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tenants := 1 + rng.Intn(4)
		capacity := 1 + rng.Intn(12)
		q := NewQueue(capacity)
		m := &queueModel{out: map[string]bool{}}
		var parked <-chan *Job // a Pop the model says is blocked
		var running []*Job     // popped, not yet released
		ids := 0

		// expect checks one Pop against the model.
		expect := func(got <-chan *Job, want *Job, op string) {
			t.Helper()
			select {
			case j := <-got:
				if j != want {
					t.Fatalf("seed %d after %s: popped %s, model says %s", seed, op, jobID(j), jobID(want))
				}
				if j == nil {
					return
				}
				if j.key != "" && !m.closed {
					for _, r := range running {
						if r.key == j.key {
							t.Fatalf("seed %d: %s popped while %s holds key %s", seed, j.id, r.id, j.key)
						}
					}
				}
				running = append(running, j)
			case <-time.After(popWait):
				t.Fatalf("seed %d after %s: Pop blocked, model says %s is runnable", seed, op, jobID(want))
			}
		}
		// settle is run after every operation: a parked Pop returns exactly
		// when the model has something for it.
		settle := func(op string) {
			t.Helper()
			if parked == nil {
				return
			}
			if want := m.pop(); want != nil || m.closed {
				expect(parked, want, op)
				parked = nil
				return
			}
			select {
			case j := <-parked:
				t.Fatalf("seed %d after %s: parked Pop returned %s, model says nothing is runnable", seed, op, jobID(j))
			default:
			}
		}

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(1000); {
			case op < 400: // push
				ids++
				j := &Job{
					id:     fmt.Sprintf("j%d", ids),
					tenant: fmt.Sprintf("t%d", rng.Intn(tenants)),
					key:    keys[rng.Intn(len(keys))],
				}
				err := q.Push(j)
				switch {
				case m.closed:
					if !errors.Is(err, ErrClosed) {
						t.Fatalf("seed %d: push after close: %v", seed, err)
					}
				case len(m.queued) >= capacity:
					if !errors.Is(err, ErrQueueFull) {
						t.Fatalf("seed %d: push at capacity: %v", seed, err)
					}
				case err != nil:
					t.Fatalf("seed %d: push: %v", seed, err)
				default:
					open := false
					for _, o := range m.queued {
						open = open || o.tenant == j.tenant
					}
					if !open {
						m.ring = append(m.ring, j.tenant)
					}
					m.queued = append(m.queued, j)
				}
				settle("push " + j.id)
			case op < 700: // pop
				if parked != nil {
					continue
				}
				got := popAsync(q)
				if want := m.pop(); want != nil || m.closed {
					expect(got, want, "pop")
				} else {
					parked = got
				}
			case op < 900: // release
				if len(running) == 0 {
					continue
				}
				i := rng.Intn(len(running))
				j := running[i]
				running = append(running[:i], running[i+1:]...)
				q.Release(j.key)
				delete(m.out, j.key)
				settle("release " + j.id)
			case op < 997: // remove
				if len(m.queued) == 0 {
					continue
				}
				j := m.take(rng.Intn(len(m.queued)))
				if !q.Remove(j.id) {
					t.Fatalf("seed %d: remove %s: not found", seed, j.id)
				}
				settle("remove " + j.id)
			default:
				q.Close()
				m.closed = true
				settle("close")
			}
			if n := q.Len(); n != len(m.queued) {
				t.Fatalf("seed %d: len %d, model %d", seed, n, len(m.queued))
			}
		}

		// Drain with whatever holds are still out.
		q.Close()
		m.closed = true
		settle("close")
		for n := len(m.queued); n >= 0; n-- {
			expect(popAsync(q), m.pop(), "drain")
		}
		if len(m.queued) != 0 {
			t.Fatalf("seed %d: %d jobs never drained", seed, len(m.queued))
		}
	}
}

// gatedEngine is an engine whose solves are a stub that reports each entry
// and then waits for the test: entered carries the key of every solve that
// starts, and the solve returns once the test sends on (or closes) release.
type gatedEngine struct {
	*Engine
	entered chan string
	release chan struct{}

	mu      sync.Mutex
	running map[string]int // solves in the stub now, by key
	peak    int            // most solves in the stub at once
	perKey  int            // most solves of one key in the stub at once
}

// newGatedEngine starts an engine of the given width over the stub; solves
// of a key block names wait for release, the others return at once.
func newGatedEngine(workers int, blocks func(key string) bool) *gatedEngine {
	g := &gatedEngine{
		Engine:  New(Options{Shards: workers}),
		entered: make(chan string, 1024), // never blocks a worker: no test starts that many solves
		release: make(chan struct{}),
		running: map[string]int{},
	}
	g.runFn = func(ctx context.Context, cfg core.Config, _ core.ProgressFunc) (*core.Result, error) {
		key, _ := cfg.Fingerprint()
		g.mu.Lock()
		g.running[key]++
		g.perKey = max(g.perKey, g.running[key])
		n := 0
		for _, c := range g.running {
			n += c
		}
		g.peak = max(g.peak, n)
		g.mu.Unlock()
		g.entered <- key
		var err error
		if blocks(key) {
			select {
			case <-g.release:
			case <-ctx.Done():
				err = ctx.Err()
			}
		}
		g.mu.Lock()
		g.running[key]--
		g.mu.Unlock()
		return &core.Result{Config: cfg}, err
	}
	return g
}

// awaitEntered waits for n solves to start.
func (g *gatedEngine) awaitEntered(t *testing.T, n int, what string) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.entered:
		case <-time.After(popWait):
			t.Fatalf("%s: only %d of %d solves started", what, i, n)
		}
	}
}

func awaitDone(t *testing.T, what string, jobs ...*Job) {
	t.Helper()
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(popWait):
			t.Fatalf("%s: %s never finished (state %s)", what, j.ID(), j.Status().State)
		}
	}
}

// seededConfig is smallConfig under another seed, and so another key.
func seededConfig(seed uint64) core.Config {
	cfg := smallConfig()
	cfg.Seed = seed
	return cfg
}

// TestWorkConserving submits sets of K distinct keys at once to engines of 2
// and 4 workers whose solves block: min(workers, K) of them must be solving
// at the same time, every time — no runnable job waits beside an idle worker.
func TestWorkConserving(t *testing.T) {
	for _, workers := range []int{2, 4} {
		g := newGatedEngine(workers, func(string) bool { return true })
		rng := rand.New(rand.NewSource(int64(workers)))
		seed := uint64(50_000)
		for round := 0; round < 200; round++ {
			k := 1 + rng.Intn(2*workers)
			cfgs := make([]core.Config, k)
			for i := range cfgs {
				seed++
				cfgs[i] = seededConfig(seed)
			}
			g.mu.Lock()
			g.peak = 0
			g.mu.Unlock()
			items := submitAll(g.Engine, cfgs)
			what := fmt.Sprintf("%d workers, round %d, %d keys", workers, round, k)
			g.awaitEntered(t, min(workers, k), what)
			// Let them go one at a time: each release frees one worker
			// for one of the keys still queued.
			for i, it := range items {
				if it.Err != nil {
					t.Fatalf("%s: item %d: %v", what, i, it.Err)
				}
				g.release <- struct{}{}
			}
			g.awaitEntered(t, k-min(workers, k), what)
			for _, it := range items {
				awaitDone(t, what, it.Job)
			}
			g.mu.Lock()
			peak := g.peak
			g.mu.Unlock()
			if peak != min(workers, k) {
				t.Fatalf("%s: peak concurrency %d, want %d", what, peak, min(workers, k))
			}
		}
		g.Close()
	}
}

// TestEnsembleFanOutBalanced runs an 8-replica ensemble on 2 workers with a
// solve that takes one unit of the test's clock: both workers are busy in
// every unit, so the fan-out takes 4 units, whatever the replicas' keys are.
func TestEnsembleFanOutBalanced(t *testing.T) {
	const reps, workers = 8, 2
	for seed := uint64(1); seed <= 20; seed++ {
		g := newGatedEngine(workers, func(string) bool { return true })
		cfg := seededConfig(60_000 + seed)
		cfg.Replicas = reps
		parent, err := g.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for unit := 0; unit < reps/workers; unit++ {
			g.awaitEntered(t, workers, fmt.Sprintf("seed %d, unit %d", seed, unit))
			for range workers {
				g.release <- struct{}{}
			}
		}
		awaitDone(t, fmt.Sprintf("seed %d: ensemble after %d units", seed, reps/workers), parent)
		if st := parent.Status(); st.State != StateDone || st.ReplicasDone != reps {
			t.Fatalf("seed %d: parent %s with %d replicas, err %v", seed, st.State, st.ReplicasDone, st.Err)
		}
		g.Close()
	}
}

// fnvShard is the shard the hash-routed scheduler this engine replaced sent
// a key to.
func fnvShard(key string, shards uint32) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32() % shards
}

// TestOneSolvePerKey reaches one key B by every entry path at once — an item
// of a batch [A, B], a concurrent Submit(B), replica 0 of an ensemble — while
// the first solve of B is held open. Keys are searched so that A and B had
// different home shards and S shared A's: under hash routing the batch's B
// ran on A's shard beside the submitted B, and S waited behind it. Here one
// worker runs B, its twins wait on the hold while S (younger, same lane)
// runs past them, and B is solved once.
func TestOneSolvePerKey(t *testing.T) {
	const workers = 4
	pick := func(from uint64, ok func(shard uint32) bool) (core.Config, string, uint64) {
		for seed := from; ; seed++ {
			cfg := seededConfig(seed)
			cfg.KeepCells = true // what an ensemble asks of its replicas
			key, err := identify(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ok(fnvShard(key, workers)) {
				return cfg, key, seed + 1
			}
		}
	}
	a, keyA, next := pick(70_000, func(uint32) bool { return true })
	home := fnvShard(keyA, workers)
	b, keyB, next := pick(next, func(s uint32) bool { return s != home })
	s, _, _ := pick(next, func(s uint32) bool { return s == home })

	g := newGatedEngine(workers, func(key string) bool { return key == keyB })
	defer g.Close()

	batch := submitAll(g.Engine, []core.Config{a, b})
	twin := make(chan *Job)
	go func() {
		j, err := g.Submit(b)
		if err != nil {
			t.Error(err)
		}
		twin <- j
	}()
	const reps = 3
	ens := b
	ens.Replicas = reps // replica 0 is b itself
	parent, err := g.Submit(ens)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*Job{batch[0].Job, batch[1].Job, <-twin, parent}

	// A, B and replicas 1, 2 start; only B stays in its solve.
	g.awaitEntered(t, 1+1+reps-1, "first solves")
	sentinel, err := g.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, "a job younger than the held twins", sentinel)
	select {
	case key := <-g.entered:
		if key == keyB {
			t.Fatal("a second solve of B started while the first was running")
		}
	case <-time.After(popWait):
		t.Fatal("the sentinel finished without being solved")
	}

	close(g.release)
	awaitDone(t, "after the release", jobs...)
	for _, j := range jobs {
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("%s ended %s: %v", j.ID(), st.State, st.Err)
		}
	}
	g.mu.Lock()
	perKey := g.perKey
	g.mu.Unlock()
	if perKey != 1 {
		t.Fatalf("%d solves of one key ran at once, want 1", perKey)
	}
	// A, B, S and replicas 1, 2: five keys, five solves.
	if runs := g.Stats().Runs; runs != 3+reps-1 {
		t.Fatalf("%d solves for %d keys: B was solved more than once", runs, 3+reps-1)
	}
}

// TestCancelHeldJob cancels a queued job that is waiting on a hold: it ends
// canceled and leaves the queue, and the hold stays where it was — a later
// twin still waits for the running solve and is served its result.
func TestCancelHeldJob(t *testing.T) {
	g := newGatedEngine(2, func(string) bool { return true })
	defer g.Close()
	cfg := seededConfig(80_000)
	first, err := g.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.awaitEntered(t, 1, "first solve")
	held, err := g.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Cancel(held.ID()); err != nil {
		t.Fatal(err)
	}
	if st := held.Status(); st.State != StateCanceled || g.Stats().Queued != 0 {
		t.Fatalf("canceled twin is %s with %d still queued", st.State, g.Stats().Queued)
	}
	late, err := g.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The second worker is free; a younger job of another key runs, the twin
	// does not.
	other, err := g.Submit(seededConfig(80_001))
	if err != nil {
		t.Fatal(err)
	}
	g.awaitEntered(t, 1, "job of another key")
	if st := late.Status(); st.State != StateQueued {
		t.Fatalf("twin of a running job is %s beside a free worker, want queued", st.State)
	}
	close(g.release)
	awaitDone(t, "after the release", first, late, other)
	if st := late.Status(); st.State != StateDone || !st.Cached {
		t.Fatalf("late twin %s cached=%v, want done from the first solve's result", st.State, st.Cached)
	}
	if runs := g.Stats().Runs; runs != 2 {
		t.Fatalf("%d solves, want 2", runs)
	}
}
