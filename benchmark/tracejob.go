package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/service"
)

// serverView is the public server-side record of one job: its lifecycle
// timestamps and per-step solver walls, read back over HTTP after the job.
type serverView struct {
	Submitted, Started, Finished time.Time
	Steps                        []time.Duration
}

// fetchServerView reads GET /v1/jobs/{id} and, with steps set,
// /v1/jobs/{id}/trace from the server at base. A job that never ran (a cache
// hit) has no Started and no trace; a coordinator's job ran elsewhere, so the
// step trace is read from the worker.
func fetchServerView(st *stack, base, id string, steps bool) (serverView, error) {
	var sv serverView
	var jv service.JobView
	if err := getJSON(st, base+"/v1/jobs/"+id, &jv); err != nil {
		return sv, err
	}
	sv.Submitted = jv.Submitted
	if jv.Started == nil || jv.Finished == nil {
		if jv.Finished != nil {
			sv.Finished = *jv.Finished
		}
		return sv, nil
	}
	sv.Started, sv.Finished = *jv.Started, *jv.Finished
	if !steps {
		return sv, nil
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"` // microseconds
		} `json:"traceEvents"`
	}
	if err := getJSON(st, base+"/v1/jobs/"+id+"/trace", &tr); err != nil {
		return sv, err
	}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" && strings.HasPrefix(ev.Name, "step ") {
			sv.Steps = append(sv.Steps, time.Duration(ev.Dur*1e3))
		}
	}
	return sv, nil
}

// fingerprintOf is the blob-store address of a job: the fingerprint of its
// spec as the engine resolves it.
func fingerprintOf(spec service.Spec) (string, error) {
	cfg, err := spec.Config()
	if err != nil {
		return "", err
	}
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	fp, _ := cfg.Fingerprint()
	return fp, nil
}

// jobTrace collects the spans of one op as they are rebuilt.
type jobTrace struct {
	rec   *recorder
	op    int
	spans []span
}

func (t *jobTrace) add(parent int, name, track string, start, end time.Time) int {
	id := t.rec.add(parent, name, t.op, track, start, end)
	t.spans = append(t.spans, t.rec.get(id))
	return id
}

// holder is a span that may have caused a decorator call, with its interval.
type holder struct {
	id     int
	lo, hi time.Time
}

// within picks the first of the holders (innermost first) whose interval
// holds t, so a decorator call lands under the span that caused it.
func within(t time.Time, fallback int, holders ...holder) int {
	for _, h := range holders {
		if h.id != 0 && !t.Before(h.lo) && !t.After(h.hi) {
			return h.id
		}
	}
	return fallback
}

// traceJob rebuilds the span tree of one finished job from public data — the
// client's own timestamps, the server's job record and step trace, and the
// calls the store and transport decorators saw — records it, and derives the
// job's per-layer samples:
//
//	bench.op
//	  http.submit            (blob.get of the result tier on a resubmit)
//	  http.stream            (http.result?wait=true on the wait path)
//	    sse.step[i]
//	    service.queue_wait
//	    service.run
//	      core.step[i], blob.*                                   single engine
//	      fleet.dispatch, fleet.watch, fleet.result_fetch, blob.*  coordinator
//	        under fleet.watch: the worker's service.queue_wait and
//	        service.run > core.step[i], fleet.snapshot_pull, blob.put
//	  http.result
func (b *bench) traceJob(st *stack, op *jobOp, roundSpan int, before, after time.Duration) {
	run := op.Run
	cal := func(d time.Duration) float64 { return b.cal(d, before, after) }
	sv, err := fetchServerView(st, st.url, run.ID, !st.fleet)
	if err != nil {
		b.fail("job %s: reading the server's record: %v", run.ID, err)
		return
	}
	fp, err := fingerprintOf(run.Spec)
	if err != nil {
		b.fail("job %s: fingerprint: %v", run.ID, err)
		return
	}

	t := &jobTrace{rec: b.rec, op: b.opID()}
	client := fmt.Sprintf("client-%d", op.Client)
	server := fmt.Sprintf("server-%d", op.Client)
	root := t.add(roundSpan, "bench.op", client, run.Start, run.End)
	submit := holder{t.add(root, "http.submit", client, run.Start, run.Submitted), run.Start, run.Submitted}
	var wait int // the client span during which the job is queued and run
	if !run.StreamOpen.IsZero() {
		wait = t.add(root, "http.stream", client, run.Submitted, run.Done)
		for i, at := range run.StepRecv {
			t.add(wait, fmt.Sprintf("sse.step[%d]", i), client, at, at)
		}
		t.add(root, "http.result", client, run.Done, run.End)
	} else {
		wait = t.add(root, "http.result", client, run.Submitted, run.End)
	}

	b.add("http.submit_s", cal(run.Submitted.Sub(run.Start)))
	b.add("http.result_s", cal(run.End.Sub(run.Done)))
	b.add("http.result_bytes", float64(run.ResultBytes))
	ran := !sv.Started.IsZero()
	if ran {
		b.add("service.submit_miss_s", cal(run.latency()))
	} else {
		b.add("service.cache_hit_s", cal(run.latency()))
	}
	if !run.FirstEvent.IsZero() {
		b.add("http.sse_first_event_s", cal(run.FirstEvent.Sub(run.Submitted)))
	}
	if ran && len(run.Steps) > 0 {
		// How long after the solver finished a step the client learned of it.
		lags := make([]float64, len(run.Steps))
		for i, s := range run.Steps {
			ready := sv.Started.Add(time.Duration(s.WallSeconds * float64(time.Second)))
			lags[i] = cal(run.StepRecv[i].Sub(ready))
		}
		b.add("http.sse_step_lag_s", median(lags))
	}

	var runSpan, watch holder
	if ran {
		t.add(wait, "service.queue_wait", server, sv.Submitted, sv.Started)
		runSpan = holder{t.add(wait, "service.run", server, sv.Started, sv.Finished), sv.Started, sv.Finished}
		b.add("service.queue_wait_s", cal(sv.Started.Sub(sv.Submitted)))
		b.add("service.run_s", cal(sv.Finished.Sub(sv.Started)))
		if st.rt != nil {
			watch = b.traceFleet(st, t, op, runSpan.id, cal)
		}
	}

	// Blob calls on this job's keys. Each checkpoint put ends where the next
	// step begins, which anchors the step spans on the shared clock.
	if st.blobs != nil {
		var putEnds []time.Time
		puts := 0
		for _, c := range st.blobs.take(func(k string) bool { return strings.HasSuffix(k, "/"+fp) }) {
			t.add(within(c.Start, root, watch, runSpan, submit), "blob."+c.Op, server, c.Start, c.End)
			d := cal(c.End.Sub(c.Start))
			switch c.Op {
			case "put":
				b.add("blob.put_s", d)
				b.add("blob.put_bytes", float64(c.Bytes))
				puts++
				if strings.HasPrefix(c.Key, "checkpoints/") {
					putEnds = append(putEnds, c.End)
				}
			case "get":
				b.add("blob.get_s", d)
			case "delete":
				b.add("blob.delete_s", d)
			}
		}
		if ran {
			b.add("blob.puts_per_job", float64(puts))
			if !st.fleet {
				t.placeSteps(runSpan.id, server, sv, putEnds)
			}
		}
	}

	// Self times over this op's spans: what each layer cost once its
	// children are taken out, and how much of the job the spans explain.
	self := selfTimes(t.spans)
	var sum time.Duration
	for _, s := range t.spans {
		if s.ID != root {
			sum += self[s.ID]
		}
	}
	b.add("trace.coverage", sum.Seconds()/run.latency().Seconds())
	if ran {
		b.add("service.self_s", cal(self[runSpan.id]))
	}
}

// placeSteps lays the server's step spans under its run span. The trace
// endpoint gives durations on the job's own clock; step i is anchored at the
// end of checkpoint put i-1 when the puts were seen, and laid end to end from
// the run's start otherwise.
func (t *jobTrace) placeSteps(parent int, track string, sv serverView, putEnds []time.Time) {
	at := sv.Started
	for i, d := range sv.Steps {
		if i > 0 && i-1 < len(putEnds) && putEnds[i-1].After(at) {
			at = putEnds[i-1]
		}
		t.add(parent, fmt.Sprintf("core.step[%d]", i), track, at, at.Add(d))
		at = at.Add(d)
	}
}

// traceFleet adds the coordinator's exchanges with the worker that ran the
// job, and the worker's own record of it, under the coordinator's run span.
// It returns the watch span.
func (b *bench) traceFleet(st *stack, t *jobTrace, op *jobOp, runSpan int, cal func(time.Duration) float64) holder {
	var watch holder
	remote, ok := st.rt.remoteOf(op.Seed)
	if !ok {
		b.fail("job %s: no dispatch seen for seed %d", op.Run.ID, op.Seed)
		return watch
	}
	calls := st.rt.log.take(func(k string) bool { return k == remote })
	for _, c := range calls { // the watch first: pulls nest under it
		if c.Op == "watch" {
			watch = holder{t.add(runSpan, "fleet.watch", "coordinator", c.Start, c.End), c.Start, c.End}
		}
	}
	pulls := 0
	for _, c := range calls {
		d := cal(c.End.Sub(c.Start))
		switch c.Op {
		case "dispatch":
			t.add(runSpan, "fleet.dispatch", "coordinator", c.Start, c.End)
			b.add("fleet.dispatch_s", d)
		case "snapshot_pull":
			t.add(within(c.Start, runSpan, watch), "fleet.snapshot_pull", "coordinator", c.Start, c.End)
			b.add("fleet.snapshot_pull_s", d)
			b.add("fleet.snapshot_pull_bytes", float64(c.Bytes))
			pulls++
		case "result_fetch":
			t.add(runSpan, "fleet.result_fetch", "coordinator", c.Start, c.End)
			b.add("fleet.result_fetch_s", d)
		}
	}
	if n := len(op.Run.Steps); n > 0 {
		b.add("fleet.pulls_per_step", float64(pulls)/float64(n))
	}

	// The worker's side of the same job.
	slash := strings.LastIndexByte(remote, '/')
	wv, err := fetchServerView(st, remote[:slash], remote[slash+1:], true)
	if err != nil || wv.Started.IsZero() {
		b.fail("job %s: reading the worker's record of %s: %v", op.Run.ID, remote, err)
		return watch
	}
	// Under the watch span even when the worker started before the watch
	// opened: what ran before it is clipped off and stays with the
	// coordinator's run, so nothing is counted twice.
	parent := runSpan
	if watch.id != 0 {
		parent = watch.id
	}
	t.add(parent, "service.queue_wait", "worker", wv.Submitted, wv.Started)
	wrun := t.add(parent, "service.run", "worker", wv.Started, wv.Finished)
	t.placeSteps(wrun, "worker", wv, nil)
	b.add("fleet.hop_s", cal(op.Run.latency()-wv.Finished.Sub(wv.Started)))
	return watch
}
