package stats

import (
	"context"
	"fmt"
	"runtime"
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
// Replicas are folded into one Welford accumulator in replica order, so every
// statistic is a function of the config alone: the worker count, and which
// replica finished first, change only the wallclock. The service folds its
// ensemble jobs the same way and reports the same bits (see Assemble).
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

	cells := base.NX * base.NY
	start := time.Now()
	ens := &Ensemble{
		Replicas: reps,
		Cells:    cells,
		Totals:   make([]float64, reps),
	}

	acc := NewAccumulator(cells)
	var (
		wg sync.WaitGroup
		// mu guards everything the workers fold into: acc, ens and the sums
		// below. Replicas fold in replica order whichever finishes first —
		// turn wakes the workers waiting for theirs — so the statistics do
		// not depend on the worker count.
		mu         sync.Mutex
		turn       = sync.NewCond(&mu)
		next       int // the replica whose fold is due
		firstErr   error
		solverWall time.Duration
		counters   core.Counters
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
				cfgR.Shape = core.Shape{Replicas: 1} // a replica is a plain single run
				var res *core.Result
				err := ectx.Err() // a dead ensemble builds nothing more
				if err == nil {
					err = sim.Reset(cfgR)
				}
				if err == nil {
					res, err = sim.Drive(ectx, nil, nil)
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
				// Fold the live tally in place: replicas add no
				// per-replica tally copies.
				acc.Add(sim.TallyCells())
				ens.Totals[rep] = res.TallyTotal
				solverWall += res.Wall
				counters.Add(&res.Counter)
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
	assemble(ens, acc, solverWall, time.Since(start), counters)
	return ens, nil
}

// Assemble folds accumulated per-cell moments and per-replica totals into an
// Ensemble — the shared back half of RunEnsemble, exposed so the service's
// ensemble jobs (which fan replicas out across the engine's own worker pool
// instead of this driver's) produce identical statistics.
func Assemble(acc *Accumulator, totals []float64, solverWall, wall time.Duration, counters core.Counters) *Ensemble {
	ens := &Ensemble{
		Replicas: acc.Count(),
		Cells:    len(acc.Mean()),
		Totals:   append([]float64(nil), totals...),
	}
	assemble(ens, acc, solverWall, wall, counters)
	return ens
}

func assemble(ens *Ensemble, acc *Accumulator, solverWall, wall time.Duration, counters core.Counters) {
	cells := len(acc.Mean())
	ens.Mean = append([]float64(nil), acc.Mean()...)
	if v := acc.Variance(); v != nil {
		ens.Variance = v
	} else {
		ens.Variance = make([]float64, cells)
	}
	ens.RelErr = acc.RelErr()
	ens.SolverWall = solverWall
	ens.Wall = wall
	ens.Counters = counters
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
}
