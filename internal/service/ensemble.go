package service

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tally"
)

// runEnsemble coordinates one ensemble job: it submits one child job per
// replica — through the engine's queue exactly like user submissions, so
// replicas run on every worker that is free, dedupe against the cache and
// against a twin in flight, and checkpoint individually — then folds the
// per-cell tallies into ensemble statistics in replica order and returns the
// merged result, filed, for execute to settle under the parent's fingerprint.
// It runs on a goroutine of its own, not a worker: a wide ensemble never
// starves the pool of its own replicas.
func (e *Engine) runEnsemble(j *Job) (*Filed, *stats.Ensemble, error) {
	cfg := j.cfg
	reps := cfg.Replicas
	children := make([]*Job, 0, reps)
	// fail cancels the children still running and reports why.
	fail := func(err error) (*Filed, *stats.Ensemble, error) {
		for _, c := range children {
			e.Cancel(c.ID())
		}
		return nil, nil, err
	}
	for r := 0; r < reps; r++ {
		ccfg := cfg
		ccfg.Replica = r
		// A replica is a plain single-run job: Replicas 1 keeps it off
		// the ensemble path (no recursion), and replica 0's config —
		// and therefore its cache key — matches an ordinary user
		// submission of the same run. The merger needs every replica's
		// per-cell tally; the bank is never needed.
		ccfg.Shape = core.Shape{Replicas: 1, KeepCells: true}
		// Children inherit the parent's tenant so the fair-share scheduler
		// charges the fan-out to the submitting tenant's lanes.
		child, err := e.SubmitWith(ccfg, SubmitOptions{Tenant: j.tenant})
		if err != nil {
			return fail(fmt.Errorf("service: ensemble replica %d: %w", r, err))
		}
		children = append(children, child)
	}

	acc := stats.NewAccumulator(cfg.NX * cfg.NY)
	start := time.Now()
	for r, child := range children {
		select {
		case <-child.Done():
		case <-j.ctx.Done():
			return fail(j.ctx.Err())
		}
		f, err := child.serve()
		if err != nil {
			return fail(fmt.Errorf("service: ensemble replica %d: %w", r, err))
		}
		res := f.res
		acc.Add(res)
		st := child.Status()
		j.addReplica(ReplicaView{
			Replica:     r,
			Replicas:    reps,
			JobID:       child.ID(),
			Cached:      st.Cached,
			TallyTotal:  res.TallyTotal,
			WallSeconds: res.Wall.Seconds(),
			Worker:      st.Worker,
			Reschedules: st.Reschedules,
		})
	}

	ens := acc.Ensemble(time.Since(start))
	// Synthesise the parent's merged Result: ensemble-mean tally and
	// summed instrumentation, with the mean per-cell map when the caller
	// asked to keep cells. The full statistics ride alongside in the
	// job and the cache entry.
	res := &core.Result{
		Config:     cfg,
		Wall:       ens.SolverWall,
		Counter:    ens.Counters,
		TallyTotal: ens.MeanTotal,
	}
	if cfg.KeepCells {
		res.Cells = tally.Compact(ens.Mean)
	}
	return fileResult(res), ens, nil
}
