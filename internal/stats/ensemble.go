package stats

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
)

// Options configures an ensemble run.
type Options struct {
	// Workers is the number of concurrent replica runners. Each worker
	// owns one core.Simulation for its whole assignment and moves between
	// replicas with Reset, so mesh, cross-section tables and the particle
	// bank are allocated once per worker, not once per replica. 0 means
	// min(replicas, GOMAXPROCS).
	Workers int
}

// Ensemble is the folded result of R independent replicas.
type Ensemble struct {
	// Replicas is the ensemble width R; Cells the tally cell count.
	Replicas int
	Cells    int

	// Mean, Variance and RelErr are the per-cell ensemble statistics:
	// mean deposited energy, Bessel-corrected sample variance across
	// replicas, and relative error of the mean (√(var/R)/|mean|).
	// Variance and RelErr are zero-valued when R < 2.
	Mean     []float64
	Variance []float64
	RelErr   []float64

	// Totals holds each replica's total tally in replica order.
	Totals []float64
	// MeanTotal and TotalRelErr summarise Totals.
	MeanTotal   float64
	TotalRelErr float64

	// AvgRelErr and MaxRelErr summarise the per-cell relative error over
	// cells with a nonzero mean (the paper-standard scoring region).
	AvgRelErr float64
	MaxRelErr float64
	// ScoredCells counts the cells with a nonzero ensemble mean.
	ScoredCells int

	// FOM is the figure of merit 1/(AvgRelErr² · solver seconds): halving
	// the error at constant cost quadruples it, and it is invariant under
	// R for a well-behaved estimator — which is what makes it the
	// cross-technique comparison number.
	FOM float64

	// SolverWall sums the replicas' solver wallclock; Wall is the
	// end-to-end ensemble time (SolverWall/Wall ≈ worker parallelism).
	SolverWall time.Duration
	Wall       time.Duration

	// Counters sums the instrumentation over every replica.
	Counters core.Counters
}

// RunEnsemble executes cfg.Replicas independent replicas of cfg and folds
// their tallies into ensemble statistics. Replica r runs the identical
// configuration with Config.Replica = r, which shifts its particles onto a
// disjoint Threefry stream family — replicas share no variates, so their
// tallies are independent samples of the same physical estimate. With
// Replicas ≤ 1 the ensemble is the run itself: Mean is bit-identical to the
// per-cell tally Run produces.
//
// Replicas are folded into one Accumulator in replica order, so every
// statistic is a function of the config alone: the worker count, and which
// replica finished first, change only the wallclock. The service folds its
// ensemble jobs through the same Accumulator and reports the same bits.
func RunEnsemble(ctx context.Context, cfg core.Config, opts Options) (*Ensemble, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	base := cfg
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if base.Replica != 0 {
		return nil, fmt.Errorf("stats: ensemble base config carries replica index %d, want 0", base.Replica)
	}
	reps := base.Replicas
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > reps {
		workers = reps
	}
	// Split the machine across concurrent replicas when the caller left
	// the solver thread count open.
	if cfg.Threads == 0 && workers > 1 {
		base.Threads = max(1, runtime.GOMAXPROCS(0)/workers)
	}

	start := time.Now()
	acc := NewAccumulator(base.NX * base.NY)
	var (
		wg sync.WaitGroup
		// mu guards acc and the fields below. Replicas fold in replica
		// order whichever finishes first — turn wakes the workers waiting
		// for theirs — so the statistics do not depend on the worker count,
		// and a worker holds one result while it waits.
		mu       sync.Mutex
		turn     = sync.NewCond(&mu)
		next     int // the replica whose fold is due
		firstErr error
	)
	ectx, cancel := context.WithCancel(ctx)
	defer cancel()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sim core.Simulation // rebound per replica: built once, reused after
			for rep := w; rep < reps; rep += workers {
				cfgR := base
				cfgR.Replica = rep
				cfgR.Shape = core.Shape{Replicas: 1, KeepCells: true} // a replica is a plain single run
				var res *core.Result
				err := ectx.Err() // a dead ensemble builds nothing more
				if err == nil {
					err = sim.Reset(cfgR)
				}
				if err == nil {
					res, err = sim.Drive(ectx, nil)
				}
				mu.Lock()
				for err == nil && firstErr == nil && next != rep {
					turn.Wait()
				}
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("stats: replica %d: %w", rep, err)
				}
				if firstErr != nil {
					mu.Unlock()
					cancel()
					turn.Broadcast()
					return
				}
				acc.Add(res)
				next++
				mu.Unlock()
				turn.Broadcast()
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("stats: ensemble canceled: %w", err)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return acc.Ensemble(time.Since(start)), nil
}

// Ensemble returns the statistics of the replicas folded so far; wall is the
// end-to-end time the caller measured.
func (a *Accumulator) Ensemble(wall time.Duration) *Ensemble {
	ens := &Ensemble{
		Replicas:   a.n,
		Cells:      len(a.mean),
		Mean:       slices.Clone(a.mean),
		Variance:   a.variance(),
		RelErr:     a.relErr(),
		Totals:     slices.Clone(a.totals),
		SolverWall: a.solverWall,
		Wall:       wall,
		Counters:   a.counters,
	}
	ens.MeanTotal, ens.TotalRelErr = scalarStats(ens.Totals)

	for i, m := range ens.Mean {
		if m == 0 {
			continue
		}
		ens.ScoredCells++
		ens.AvgRelErr += ens.RelErr[i]
		if ens.RelErr[i] > ens.MaxRelErr {
			ens.MaxRelErr = ens.RelErr[i]
		}
	}
	if ens.ScoredCells > 0 {
		ens.AvgRelErr /= float64(ens.ScoredCells)
	}
	if ens.AvgRelErr > 0 && ens.SolverWall > 0 {
		ens.FOM = 1 / (ens.AvgRelErr * ens.AvgRelErr * ens.SolverWall.Seconds())
	}
	return ens
}
