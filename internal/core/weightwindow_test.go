package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/mesh"
	"repro/internal/particle"
)

// wwConfig is smallConfig with population control enabled and enough steps
// for implicit capture to drive weights into the roulette band.
func wwConfig(p mesh.Problem) Config {
	cfg := smallConfig(p)
	cfg.Steps = 3
	cfg.WeightWindow = WeightWindow{Enabled: true}
	return cfg
}

// TestPopulationControlPreservesExpectedWeight is the unbiasedness pin for
// the control pass itself: the total alive weight after roulette+splitting,
// averaged over many independent populations, must equal the weight before
// it. Splitting is exactly conserving; roulette only in expectation, so the
// test aggregates over seeds (deterministic — every run is seeded).
func TestPopulationControlPreservesExpectedWeight(t *testing.T) {
	var before, after float64
	for seed := uint64(0); seed < 40; seed++ {
		cfg := wwConfig(mesh.CSP)
		cfg.Particles = 200
		cfg.Seed = 40_000 + seed
		sim, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Advance one step so absorption spreads the weights, then
		// measure one control pass in isolation.
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		r := sim.r
		r.reviveCensus()
		w, _ := r.bank.SumFrom(0, 0, 0)
		before += w
		r.populationControl()
		w, _ = r.bank.SumFrom(0, 0, 0)
		after += w
	}
	if rel := math.Abs(after-before) / before; rel > 0.01 {
		t.Errorf("control pass shifted expected total weight by %.3g relative (before %.6g, after %.6g)",
			rel, before, after)
	}
}

// TestWeightWindowExercisesBothMoves checks the machinery actually fires on
// the csp problem: roulette games, kills, splits and appended children, with
// the bank grown accordingly and every count self-consistent.
func TestWeightWindowExercisesBothMoves(t *testing.T) {
	cfg := wwConfig(mesh.CSP)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counter
	if c.WWRoulette == 0 || c.WWKills == 0 {
		t.Errorf("roulette never fired: %d games, %d kills", c.WWRoulette, c.WWKills)
	}
	if c.WWSplits == 0 || c.WWChildren == 0 {
		t.Errorf("splitting never fired: %d splits, %d children", c.WWSplits, c.WWChildren)
	}
	if c.WWKills > c.WWRoulette {
		t.Errorf("%d kills exceed %d games", c.WWKills, c.WWRoulette)
	}
	if res.Bank.Len() != cfg.Particles+int(c.WWChildren) {
		t.Errorf("bank holds %d particles, want %d source + %d children",
			res.Bank.Len(), cfg.Particles, c.WWChildren)
	}
	// Analog runs must stay silent.
	analog := smallConfig(mesh.CSP)
	ra, err := Run(analog)
	if err != nil {
		t.Fatal(err)
	}
	if ca := ra.Counter; ca.WWRoulette+ca.WWKills+ca.WWSplits+ca.WWChildren != 0 {
		t.Errorf("analog run recorded population control: %+v", ca)
	}
}

// TestWeightWindowSchemeEquivalence extends the central equivalence property
// under population control: the pass runs outside the scheme loops, so Over
// Particles and Over Events must stay bit-identical with it enabled, across
// both layouts.
func TestWeightWindowSchemeEquivalence(t *testing.T) {
	ref := wwConfig(mesh.CSP)
	ref.Scheme = OverParticles
	rop, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
		t.Run(fmt.Sprintf("%v", layout), func(t *testing.T) {
			cfg := wwConfig(mesh.CSP)
			cfg.Scheme = OverEvents
			cfg.Layout = layout
			roe, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareBanks(t, rop.Bank, roe.Bank)
			// Physics counters must match exactly; DensityReads and the
			// OE bookkeeping legitimately differ between the schemes.
			cop, coe := rop.Counter, roe.Counter
			cop.DensityReads, coe.DensityReads = 0, 0
			coe.OERounds, coe.OESlotSweeps, coe.OEActiveVisits = 0, 0, 0
			if cop != coe {
				t.Errorf("counters differ under weight window:\nop %+v\noe %+v",
					rop.Counter, roe.Counter)
			}
			if rop.TallyTotal != roe.TallyTotal {
				t.Errorf("tallies differ: %.17g vs %.17g", rop.TallyTotal, roe.TallyTotal)
			}
		})
	}
}

// TestWeightWindowDeterministicAcrossThreads: the serial control pass and
// the derived child identities must keep runs thread-count independent.
func TestWeightWindowDeterministicAcrossThreads(t *testing.T) {
	var ref *Result
	for _, threads := range []int{1, 3, 8} {
		cfg := wwConfig(mesh.CSP)
		cfg.Threads = threads
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		compareBanks(t, ref.Bank, res.Bank)
		if ref.Counter != res.Counter {
			t.Errorf("threads=%d: counters differ", threads)
		}
	}
}

// TestWeightWindowSnapshotRoundTrip pins checkpointing across a grown bank:
// a run split by Snapshot/Restore at a boundary where splitting has already
// enlarged the population must finish bit-identical to the uninterrupted
// run, including across layouts.
func TestWeightWindowSnapshotRoundTrip(t *testing.T) {
	for _, restoreLayout := range []particle.Layout{particle.AoS, particle.SoA} {
		cfg := wwConfig(mesh.CSP)
		full, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}

		sim, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := sim.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if sim.r.bank.Len() <= cfg.Particles {
			t.Fatal("test premise broken: no splitting before the snapshot boundary")
		}
		snap := sim.Snapshot()

		rcfg := cfg
		rcfg.Layout = restoreLayout
		resumed, err := RestoreSimulation(rcfg, snap)
		if err != nil {
			t.Fatalf("restore into %v: %v", restoreLayout, err)
		}
		for !resumed.Done() {
			if err := resumed.Step(); err != nil {
				t.Fatal(err)
			}
		}
		res := resumed.Finalize()
		compareBanks(t, full.Bank, res.Bank)
		if full.Counter != res.Counter {
			t.Errorf("restore into %v: counters differ:\nfull    %+v\nresumed %+v",
				restoreLayout, full.Counter, res.Counter)
		}
		if full.TallyTotal != res.TallyTotal {
			t.Errorf("restore into %v: tallies differ: %.17g vs %.17g", restoreLayout, full.TallyTotal, res.TallyTotal)
		}
	}
}

// TestWeightWindowResetMatchesFresh: a Reset from a grown-bank run must be
// indistinguishable from a fresh simulation, both into another weight-window
// config and back to an analog one.
func TestWeightWindowResetMatchesFresh(t *testing.T) {
	first := wwConfig(mesh.CSP)
	first.KeepBank = false // reuse the grown bank
	sim, err := NewSimulation(first)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i, cfg := range []Config{wwConfig(mesh.Scatter), smallConfig(mesh.CSP)} {
		if err := sim.Reset(cfg); err != nil {
			t.Fatalf("reset %d: %v", i, err)
		}
		got, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		compareBanks(t, want.Bank, got.Bank)
		if want.Counter != got.Counter {
			t.Errorf("reset %d: counters differ:\nfresh %+v\nreset %+v", i, want.Counter, got.Counter)
		}
	}
}

// TestSplitChildIdentitiesUnique pins the stream-identity invariant under
// repeated capped splits: on the vacuum stream problem a particle draws no
// RNG at all, and a tiny window target re-splits the SplitMax-capped parent
// at every boundary — the worst case for identity derivation. Every particle
// in the final bank must still own a distinct stream identity.
func TestSplitChildIdentitiesUnique(t *testing.T) {
	cfg := smallConfig(mesh.Stream)
	cfg.Particles = 50
	cfg.Steps = 3
	// target 0.02, window top 0.08 < 1/SplitMax, so split products stay
	// above the window and split again next step without any RNG use.
	cfg.WeightWindow = WeightWindow{Enabled: true, Target: 0.02}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counter.WWSplits <= uint64(cfg.Particles) {
		t.Fatalf("test premise broken: %d splits, want re-splitting beyond the %d sources",
			res.Counter.WWSplits, cfg.Particles)
	}
	seen := make(map[uint64]int, res.Bank.Len())
	var p particle.Particle
	for i := 0; i < res.Bank.Len(); i++ {
		res.Bank.Load(i, &p)
		if prev, dup := seen[p.ID]; dup {
			t.Fatalf("slots %d and %d share stream identity %d", prev, i, p.ID)
		}
		seen[p.ID] = i
	}
}

// TestReplicaZeroBitIdentical pins the ensemble indexing contract: replica 0
// is the run itself, bit for bit, and a nonzero replica is a genuinely
// different (disjoint-stream) run.
func TestReplicaZeroBitIdentical(t *testing.T) {
	base := smallConfig(mesh.CSP)
	r0 := base
	r0.Replicas = 4 // ensemble framing alone must not change histories
	r0.Replica = 0
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(r0)
	if err != nil {
		t.Fatal(err)
	}
	compareBanks(t, want.Bank, got.Bank)
	if want.TallyTotal != got.TallyTotal {
		t.Errorf("replica 0 tally %v != base %v", got.TallyTotal, want.TallyTotal)
	}

	r1 := r0
	r1.Replica = 1
	other, err := Run(r1)
	if err != nil {
		t.Fatal(err)
	}
	var a, b particle.Particle
	same := 0
	for i := 0; i < want.Bank.Len(); i++ {
		want.Bank.Load(i, &a)
		other.Bank.Load(i, &b)
		if a.X == b.X && a.Y == b.Y {
			same++
		}
	}
	if same == want.Bank.Len() {
		t.Error("replica 1 reproduced replica 0's histories; stream families overlap")
	}
	if other.Bank.Len() > 0 {
		other.Bank.Load(0, &b)
		if b.ID != uint64(base.Particles) {
			t.Errorf("replica 1 first id %d, want offset %d", b.ID, base.Particles)
		}
	}
}

// TestWeightWindowTinyTargetSplits: a target so small that weight/target
// overflows an int (or is +Inf) still splits to SplitMax, on both schemes.
func TestWeightWindowTinyTargetSplits(t *testing.T) {
	for _, scheme := range []Scheme{OverParticles, OverEvents} {
		cfg := wwConfig(mesh.CSP)
		cfg.Scheme, cfg.Particles, cfg.Steps = scheme, 10, 1
		cfg.WeightWindow.Target = 1e-300
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Every source particle is above the window at the first boundary.
		c, fan := res.Counter, uint64(cfg.WeightWindow.withDefaults().SplitMax)
		if c.WWSplits != uint64(cfg.Particles) || c.WWChildren != (fan-1)*c.WWSplits {
			t.Errorf("%v: %d splits, %d children; want %d splits of %d", scheme, c.WWSplits, c.WWChildren, cfg.Particles, fan)
		}
	}
}

// TestWeightWindowBankBound: a window whose splits would take the bank past
// particle.MaxPopulation fails its step with ErrBankFull before it appends a
// child, and the failure latches: the next Step and Drive fail with it too.
func TestWeightWindowBankBound(t *testing.T) {
	cfg := wwConfig(mesh.CSP)
	cfg.Particles, cfg.Threads = 10, 1
	cfg.WeightWindow = WeightWindow{Enabled: true, Target: 1e-9, SplitMax: particle.MaxPopulation}
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = sim.Step()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBankFull) {
		t.Fatalf("Step = %v, want ErrBankFull", err)
	}
	if n := sim.r.bank.Len(); n != cfg.Particles {
		t.Errorf("bank holds %d particles after the refused split, want %d", n, cfg.Particles)
	}
	// One child record is ~100 B, so the refused 2^24-way split would have
	// allocated over a gigabyte.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("the refused step allocated %d bytes", grew)
	}
	if err := sim.Step(); !errors.Is(err, ErrBankFull) {
		t.Errorf("next Step = %v, want the latched ErrBankFull", err)
	}
	if _, err := RunCtx(context.Background(), cfg, nil); !errors.Is(err, ErrBankFull) {
		t.Errorf("RunCtx = %v, want ErrBankFull", err)
	}
}
