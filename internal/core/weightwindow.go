package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/particle"
	"repro/internal/rng"
)

// WeightWindow configures weight-based population control (variance
// reduction): Russian roulette for histories whose statistical weight has
// fallen below the window and splitting for histories above it, the §IV-E
// machinery the paper carries in the particle record but never exercises.
// The window is per cell, derived from the density mesh: the target weight
// scales with the cell's share of the peak density (floored at
// MinTargetFraction), so heavily-absorbing regions keep weights near birth
// weight while low-density regions — where few histories ever deposit and
// relative variance is worst — run many light particles instead of few heavy
// ones. Both control moves preserve the expected total weight exactly:
// a roulette game at survival weight S survives with probability w/S and is
// restored to S, and an n-way split divides w into n children of w/n.
type WeightWindow struct {
	// Enabled turns the population-control pass on. The pass runs at the
	// start of every timestep, outside both scheme loops, so Over
	// Particles and Over Events stay bit-identical under it.
	Enabled bool
	// Target is the window's target weight in the densest cell. 0 means
	// the birth weight (1.0).
	Target float64
	// Ratio is the window width: a history is rouletted below
	// target/Ratio and split above target*Ratio. 0 means 4.
	Ratio float64
	// SplitMax caps the fan-out of a single split. 0 means 8.
	SplitMax int
}

// MinTargetFraction floors the per-cell window target at this share of
// Target, so near-void cells get a finite window instead of one that
// splits without bound.
const MinTargetFraction = 0.1

// withDefaults resolves the zero-value knobs.
func (w WeightWindow) withDefaults() WeightWindow {
	if w.Target == 0 {
		w.Target = 1
	}
	if w.Ratio == 0 {
		w.Ratio = 4
	}
	if w.SplitMax == 0 {
		w.SplitMax = 8
	}
	return w
}

// validate checks an enabled window's parameters (after defaulting).
func (w WeightWindow) validate() error {
	if !w.Enabled {
		return nil
	}
	if w.Target <= 0 {
		return fmt.Errorf("core: weight-window target %v must be positive", w.Target)
	}
	if w.Ratio <= 1 {
		return fmt.Errorf("core: weight-window ratio %v must exceed 1", w.Ratio)
	}
	if w.SplitMax < 1 {
		return fmt.Errorf("core: weight-window split cap %d must be positive", w.SplitMax)
	}
	return nil
}

// wwTarget is the window target weight for a cell: Target scaled by the
// cell's share of the peak density, floored at MinTargetFraction.
func (r *run) wwTarget(cx, cy int32) float64 {
	frac := MinTargetFraction
	if r.wwRhoMax > 0 {
		if f := r.mesh.Density(int(cx), int(cy)) / r.wwRhoMax; f > frac {
			frac = f
		}
	}
	return r.cfg.WeightWindow.Target * frac
}

// populationControl applies the weight window to every in-flight history and
// reports the controlled alive population. It runs serially at the timestep
// boundary — before the scheme loop, after census revival — so its effect is
// a pure function of the bank state: identical for both schemes, both
// layouts, every schedule and every thread count, and it survives a
// snapshot/restore at the same boundary because the roulette draws come from
// each particle's own counter-based stream.
//
// Roulette (weight below target/Ratio): the history survives with
// probability weight/target and is restored to the target weight; otherwise
// it is terminated with zero weight and no deposit. The killed weight is
// repaid in expectation by the survivors' boost, so the expected total
// weight — and therefore every expected tally — is unchanged; individual
// runs conserve energy only statistically, which is the price of variance
// reduction.
//
// Splitting (weight above target*Ratio): the history is divided into
// n = min(ceil(weight/target), SplitMax) copies of weight/n. The parent
// keeps its slot and stream; each child is appended to the bank with a
// derived stream identity (rng.ChildID) and a freshly sampled
// mean-free-path budget from its own stream, so parent and children decohere
// at their first flight. Splitting is exactly weight- and energy-conserving.
func (r *run) populationControl() int {
	ww := r.cfg.WeightWindow
	ws := r.workers[0]
	n := r.bank.Len() // children appended below start inside the window
	alive := 0
	var p particle.Particle
	for i := 0; i < n; i++ {
		if r.bank.StatusOf(i) != particle.Alive {
			continue
		}
		r.bank.Load(i, &p)
		target := r.wwTarget(p.CellX, p.CellY)
		switch {
		case p.Weight < target/ww.Ratio:
			s := p.Stream(r.cfg.Seed)
			ws.c.RNGDraws++
			ws.c.WWRoulette++
			if s.Uniform()*target < p.Weight {
				p.Weight = target
				alive++
			} else {
				p.Weight = 0
				p.Status = particle.Dead
				ws.c.WWKills++
			}
			p.SaveStream(&s)
			r.bank.Store(i, &p)
		case p.Weight > target*ww.Ratio:
			split := int(math.Ceil(p.Weight / target))
			if split > ww.SplitMax {
				split = ww.SplitMax
			}
			if split < 2 {
				alive++
				continue
			}
			ws.c.WWSplits++
			p.Weight /= float64(split)
			child := p
			for k := 1; k < split; k++ {
				child.ID = rng.ChildID(r.cfg.Seed, p.ID, p.RNGCounter, k)
				cs := rng.NewStream(r.cfg.Seed, child.ID)
				child.MFPToCollision = rng.MeanFreePaths(&cs)
				child.RNGCounter = cs.Counter()
				ws.c.RNGDraws++
				ws.c.WWChildren++
				r.bank.Append(&child)
			}
			// Consume the derivation block: a SplitMax-capped parent can
			// sit above the window again at the next boundary without
			// drawing any RNG in between (no collisions in a thin cell),
			// and re-deriving from an unchanged counter would mint the
			// previous round's child identities a second time.
			p.RNGCounter++
			r.bank.Store(i, &p)
			alive += split
		default:
			alive++
		}
	}
	return alive
}

// controlStep runs the population-control pass and updates the step's
// progress accounting; Step calls it when the window is enabled.
func (r *run) controlStep(res *Result) {
	r.regionStart("control")
	t0 := time.Now()
	alive := r.populationControl()
	r.stepTotal.Store(int64(alive))
	res.Phases.Control += time.Since(t0)
	r.regionEnd("control")
}
