package main

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// svcOp is one planned client operation: the job's seed and what the plan
// expects the service to do with it.
type svcOp struct {
	Seed uint64
	Cat  string // "new": first submission; "hot": resubmit expected in the LRU; "evicted": resubmit expected only in the blob result tier
}

// jobOp is one executed operation with everything needed to record it.
type jobOp struct {
	svcOp
	Client int
	Run    *jobRun
	Bare   *solved // the bare solve of the same spec in the same round; nil for resubmits
}

// runService is the measured phase of a service or fleet workload. The load
// is a closed loop of P clients: each sends its next job when the previous
// result is decoded (the service's callers are sweep drivers and coupled
// codes that wait for replies). Each round is
//
//	calib(P) -> P clients each run their ops -> P bare solves of the new specs -> calib(P)
//
// where the closing calibration of one round is the opening one of the next.
func (b *bench) runService() {
	o := stackOpts{Fleet: b.w.Kind == kindFleetSteps, Shards: b.P, Traced: b.rec != nil}
	if b.w.Kind == kindServeMixed {
		o.CacheEntries = mixedCacheEntries
	}
	stream := b.w.Kind != kindServeMixed
	b.measureSetup(stackOpts{Fleet: o.Fleet, Shards: o.Shards, CacheEntries: o.CacheEntries}, stream)

	dir, err := os.MkdirTemp(b.tmp, "blobs-")
	if err != nil {
		b.fail("temp dir: %v", err)
		return
	}
	o.Dir = dir
	st, err := startStack(o)
	if err != nil {
		b.fail("stack start: %v", err)
		return
	}
	defer st.close()

	warmup := b.w.warmup()
	total := warmup + b.rounds
	refs := map[uint64]*core.Result{} // bare result per seed, for resubmits
	plan := b.plan(st, total, refs)
	if plan == nil {
		return
	}

	b.settle()
	calPrev := b.calibrate(b.P, 0)
	for round := 0; round < total; round++ {
		measured := round >= warmup
		if measured && b.expired(round-warmup) {
			break
		}
		traced := b.rec != nil && measured && tracedRound(round-warmup)
		b.settle()
		roundSpan := b.open(traced, 0, "bench.round", 0)

		// Phase A: the clients. Steps workloads run in lockstep — every
		// client's k-th job of the round starts together — so the share of
		// jobs that queue behind another on the same shard is the routing's,
		// not an accident of how the clients drifted apart. serve_mixed's
		// clients run free: its ops differ a hundredfold in length, and a
		// hit must not wait for a miss.
		ops := make([][]*jobOp, b.P)
		var wg sync.WaitGroup
		var wallA time.Duration
		runOps := func(from, to int) {
			start := time.Now()
			for c := 0; c < b.P; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for _, p := range plan[round][c][from:to] {
						ops[c] = append(ops[c], &jobOp{svcOp: p, Client: c, Run: runJob(st, b.w.spec(p.Seed), stream)})
					}
				}(c)
			}
			wg.Wait()
			wallA += time.Since(start)
		}
		if stream {
			for k := 0; k < b.w.OpsPerClient; k++ {
				runOps(k, k+1)
			}
		} else {
			runOps(0, b.w.OpsPerClient)
		}

		// Phase B: bare solves of this round's new specs, P at a time — the
		// same spec on the same cores moments later, which is what makes
		// overhead_x a paired ratio.
		var fresh []*jobOp
		for _, cl := range ops {
			for _, op := range cl {
				if op.Cat == "new" {
					fresh = append(fresh, op)
				}
			}
		}
		b.eachP(len(fresh), nil, func(i int) {
			op := fresh[i]
			parent := b.open(traced, roundSpan, "bench.op", b.opID())
			s, err := b.solve(b.w.config(op.Seed, 1), parent, false)
			b.close(parent)
			if err != nil {
				b.fail("round %d seed %d: bare solve: %v", round, op.Seed, err)
				return
			}
			op.Bare = &s
		})
		calNext := b.calibrate(b.P, roundSpan)

		if measured {
			n := 0
			for _, cl := range ops {
				for _, op := range cl {
					b.attempt()
					op.Run.fetchFinal(st)
					ref := refs[op.Seed]
					if op.Bare != nil {
						ref = op.Bare.res
					}
					if !b.verifyJob(round, op, ref) {
						continue
					}
					n++
					b.recordJob(op, calPrev, calNext, traced)
					if traced {
						b.traceJob(st, op, roundSpan, calPrev, calNext)
					}
				}
			}
			if !traced && n > 0 {
				b.jobsDone += float64(n)
				b.jobsWall += b.cal(wallA, calPrev, calNext)
			}
		}
		b.close(roundSpan)
		calPrev = calNext
		if measured {
			b.roundDone(round - warmup)
		}
	}
	b.scrape(st)
}

// eachP runs fn(i) for every i in [0, n), P at a time, calling before (when
// non-nil) ahead of each batch of P.
func (b *bench) eachP(n int, before func(), fn func(i int)) {
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += b.P {
		if before != nil {
			before()
		}
		for i := lo; i < min(lo+b.P, n); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				fn(i)
			}(i)
		}
		wg.Wait()
	}
}

// plan lays out every round's ops per client. The steps workloads send one
// new spec per client per round. serve_mixed first solves its hot set through
// the service (and bare, for the references), then draws each op from the
// seeded mix while tracking a model of the server's LRU, so "hot" picks are
// recently used specs and "evicted" picks are the least recently used ones.
func (b *bench) plan(st *stack, rounds int, refs map[uint64]*core.Result) [][][]svcOp {
	plan := make([][][]svcOp, rounds)
	n := uint64(0)
	if b.w.Kind != kindServeMixed {
		for r := range plan {
			plan[r] = make([][]svcOp, b.P)
			for c := range plan[r] {
				for k := 0; k < b.w.OpsPerClient; k++ {
					plan[r][c] = append(plan[r][c], svcOp{Seed: mix(b.opts.Seed, n), Cat: "new"})
					n++
				}
			}
		}
		return plan
	}

	// Hot set: solved bare (references) and through the service (so the LRU
	// holds the last mixedCacheEntries of them and the blob tier all).
	hot := make([]uint64, mixedHotSet)
	for i := range hot {
		hot[i] = mix(b.opts.Seed, 1<<40+uint64(i))
	}
	var mu sync.Mutex
	b.eachP(len(hot), b.settle, func(i int) {
		seed := hot[i]
		s, err := b.solve(b.w.config(seed, 1), 0, false)
		run := runJob(st, b.w.spec(seed), false)
		run.fetchFinal(st)
		b.attempt()
		if err != nil {
			b.fail("hot set seed %d: bare solve: %v", seed, err)
			return
		}
		if b.verifyJob(-1, &jobOp{svcOp: svcOp{Seed: seed, Cat: "new"}, Run: run}, s.res) {
			mu.Lock()
			refs[seed] = s.res
			mu.Unlock()
		}
	})
	if len(refs) != len(hot) {
		return nil
	}

	// lru models the server's cache order, most recent first. It holds every
	// key ever submitted; the first mixedCacheEntries are "in the cache".
	lru := make([]uint64, 0, len(hot)+rounds)
	for i := len(hot) - 1; i >= 0; i-- {
		lru = append(lru, hot[i])
	}
	isHot := map[uint64]bool{}
	for _, h := range hot {
		isHot[h] = true
	}
	touch := func(seed uint64) {
		for i, s := range lru {
			if s == seed {
				copy(lru[1:i+1], lru[:i])
				lru[0] = seed
				return
			}
		}
		lru = append(lru, 0)
		copy(lru[1:], lru)
		lru[0] = seed
	}
	// The mix is exact, not sampled: every block of mixedBlock consecutive ops
	// holds the same number of each category in a seeded order. A miss costs
	// ten hits, so a sampled mix would make one seed's run a different amount
	// of work from another's.
	var block []string
	nextCat := func() string {
		if len(block) == 0 {
			for i := 0; i < mixedBlock; i++ {
				switch {
				case i < mixedBlockHot:
					block = append(block, "hot")
				case i < mixedBlockHot+mixedBlockEvicted:
					block = append(block, "evicted")
				default:
					block = append(block, "new")
				}
			}
			for i := len(block) - 1; i > 0; i-- {
				j := int(mix(b.opts.Seed, 1<<41+n) % uint64(i+1))
				n++
				block[i], block[j] = block[j], block[i]
			}
		}
		cat := block[len(block)-1]
		block = block[:len(block)-1]
		return cat
	}
	for r := range plan {
		plan[r] = make([][]svcOp, b.P)
		for k := 0; k < b.w.OpsPerClient; k++ {
			for c := 0; c < b.P; c++ {
				draw := mix(b.opts.Seed, 1<<41+n)
				n++
				op := svcOp{Cat: nextCat()}
				switch op.Cat {
				case "hot":
					// Among the hot specs in the most recent half of the
					// cache: still cached even if the clients' real order
					// differs from the model's by a few positions.
					var cands []uint64
					for _, s := range lru[:mixedCacheEntries/2] {
						if isHot[s] {
							cands = append(cands, s)
						}
					}
					if len(cands) == 0 {
						cands = hot[:1]
					}
					op.Seed = cands[draw%uint64(len(cands))]
				case "evicted":
					// The least recently used hot spec: with a hot set twice
					// the cache, it was evicted long ago.
					for i := len(lru) - 1; i >= 0; i-- {
						if isHot[lru[i]] {
							op.Seed = lru[i]
							break
						}
					}
				default:
					op.Seed = mix(b.opts.Seed, 1<<42+n)
				}
				touch(op.Seed)
				plan[r][c] = append(plan[r][c], op)
			}
		}
	}
	return plan
}

// verifyJob checks one job against the bare solve of the same spec: the
// service must add nothing and lose nothing. It reports whether the job is
// usable for timing at all.
func (b *bench) verifyJob(round int, op *jobOp, ref *core.Result) bool {
	run := op.Run
	where := fmt.Sprintf("round %d job %s seed %d (%s)", round, run.ID, op.Seed, op.Cat)
	if run.Err != nil {
		b.fail("%s: %v", where, run.Err)
		return false
	}
	ok := true
	bad := func(format string, args ...any) {
		b.fail("%s: "+format, append([]any{where}, args...)...)
		ok = false
	}
	if run.Final.State != service.StateDone {
		bad("state %q, want done", run.Final.State)
	}
	if len(run.Final.Warnings) > 0 {
		bad("warnings: %v", run.Final.Warnings)
	}
	if run.Final.Reschedules != 0 {
		bad("rescheduled %d times", run.Final.Reschedules)
	}
	rv := run.Result
	if !(rv.ConservationError <= conservationTol) {
		bad("conservation error %.3e", rv.ConservationError)
	}
	b.add("verify.max_conservation_err", rv.ConservationError)
	if ref == nil {
		bad("no bare reference for the spec")
		return false
	}
	if rv.Counters == nil || *rv.Counters != ref.Counter {
		bad("counters differ from the bare solve")
	}
	if rv.TallyTotal != ref.TallyTotal {
		bad("tally_total %x differs from the bare solve's %x", rv.TallyTotal, ref.TallyTotal)
	}
	if b.w.spec(op.Seed).KeepCells && !reflect.DeepEqual(rv.Cells, ref.Cells) {
		bad("cells differ from the bare solve")
	}
	b.add("verify.tally_rel_diff", relDiff(rv.TallyTotal, ref.TallyTotal))
	b.checkRef("job", round, float64(rv.Events), rv.TallyTotal)
	return ok
}

// recordJob records the end-to-end samples of one verified job (untraced
// rounds), or its traced latency (traced rounds).
func (b *bench) recordJob(op *jobOp, before, after time.Duration, traced bool) {
	lat := b.cal(op.Run.latency(), before, after)
	if traced {
		b.add("traced.job_s", lat)
		return
	}
	b.add("job_p50_s", lat)
	b.add("calib.raw_op_s", op.Run.latency().Seconds())
	if op.Bare != nil {
		b.add("overhead_x", op.Run.latency().Seconds()/op.Bare.wall().Seconds())
		b.add("events_per_s_t1", float64(op.Bare.res.Counter.TotalEvents())/b.cal(op.Bare.step, before, after))
	}
}

// scrape reads /metrics a few times after the run: what observability costs
// (telemetry.*), and the server's own counters behind the cache and fleet
// ratios.
func (b *bench) scrape(st *stack) {
	var text string
	for i := 0; i < 5; i++ {
		ca := b.calibrate(1, 0)
		t0 := time.Now()
		resp, err := st.client.Get(st.url + "/metrics")
		if err != nil {
			b.fail("scrape: %v", err)
			return
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		d := time.Since(t0)
		cb := b.calibrate(1, 0)
		if err != nil || resp.StatusCode != 200 {
			b.fail("scrape: HTTP %d, %v", resp.StatusCode, err)
			return
		}
		text = string(data)
		b.add("telemetry.scrape_s", b.cal(d, ca, cb))
		b.add("telemetry.scrape_bytes", float64(len(data)))
	}
	jobs := promValue(text, "neutral_jobs_submitted_total")
	if jobs > 0 {
		blobHits := promValue(text, "neutral_blob_result_hits_total")
		b.set("service.blob_hit_ratio", blobHits/jobs)
		// Submit-time LRU hits: every submission probes the cache once, and
		// the worker's pop-time re-check probes it again for each miss.
		b.set("service.cache_hit_ratio", promValue(text, "neutral_cache_hits_total")/jobs)
	}
	if st.fleet {
		b.set("fleet.retries", promValue(text, "fleet_retries_total"))
		b.set("fleet.reschedules", promValue(text, "fleet_reschedules_total"))
	}
}

// promValue returns the value of an unlabelled series in Prometheus text
// exposition; 0 when absent.
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}
