package core

import (
	"fmt"
	"testing"

	"repro/internal/mesh"
	"repro/internal/particle"
)

// Locality-optimisation invariance suite: Morton ordering and the periodic
// bank sort are execution strategy, so every ordering × sort × scheme ×
// layout cell must reproduce the SAME pinned golden physics as the
// row-major/no-sort baseline — the full counter vector exactly, the floats
// to the golden tolerance. A locality change that shifts any number here is
// a physics bug, not an optimisation.

// TestGoldenLocalityMatrix runs the csp golden problem (the one mixing all
// event kinds) through every locality cell and compares against the same
// pinned values TestGoldenPhysics uses.
func TestGoldenLocalityMatrix(t *testing.T) {
	want := golden[mesh.CSP]
	for _, ord := range []mesh.Ordering{mesh.RowMajor, mesh.Morton} {
		for _, sortEvery := range []int{0, 1} {
			for _, scheme := range []Scheme{OverParticles, OverEvents} {
				for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
					t.Run(fmt.Sprintf("%v/sort=%d/%v/%v", ord, sortEvery, scheme, layout), func(t *testing.T) {
						cfg := goldenConfig(mesh.CSP)
						cfg.Ordering = ord
						cfg.SortEvery = sortEvery
						cfg.Scheme = scheme
						cfg.Layout = layout
						res, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						got := res.Counter
						got.OERounds, got.OESlotSweeps, got.OEActiveVisits = 0, 0, 0
						if scheme == OverEvents {
							got.DensityReads = want.counters.DensityReads
						}
						if got != want.counters {
							t.Errorf("counter vector drifted:\ngot  %+v\nwant %+v", got, want.counters)
						}
						if !goldenClose(res.TallyTotal, want.tallyTotal) {
							t.Errorf("tally total %.17g, want %.17g", res.TallyTotal, want.tallyTotal)
						}
						if !goldenClose(res.Conservation.FinalWeight, want.finalWeight) {
							t.Errorf("final weight %.17g, want %.17g",
								res.Conservation.FinalWeight, want.finalWeight)
						}
						if sum := goldenBankSum(res.Bank); !goldenClose(sum, want.bankSum) {
							t.Errorf("bank checksum %.17g, want %.17g", sum, want.bankSum)
						}
					})
				}
			}
		}
	}
}

// TestLocalityCellsIdentical pins the per-cell tally — not just the total —
// across orderings and sort intervals. Neither changes the set of deposits a
// cell receives; sorting permutes the order they arrive in, which an integer
// sum does not see. So every run's logical tally view must equal the
// row-major, unsorted run's cell for cell, bit for bit.
func TestLocalityCellsIdentical(t *testing.T) {
	base := goldenConfig(mesh.CSP)
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, sortEvery := range []int{0, 1, 2} {
		cfg := goldenConfig(mesh.CSP)
		cfg.Ordering = mesh.Morton
		cfg.SortEvery = sortEvery
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cells) != len(ref.Cells) {
			t.Fatalf("sort=%d: %d cells, want %d", sortEvery, len(res.Cells), len(ref.Cells))
		}
		for i := range ref.Cells {
			if res.Cells[i] != ref.Cells[i] {
				t.Fatalf("sort=%d: cell %d = %.17g, want %.17g", sortEvery, i, res.Cells[i], ref.Cells[i])
			}
		}
		if res.TallyTotal != ref.TallyTotal {
			t.Errorf("sort=%d: total %.17g, want %.17g", sortEvery, res.TallyTotal, ref.TallyTotal)
		}
	}
}

// TestLocalitySnapshotPortable checks a checkpoint taken under Morton+sort
// restores under row-major (and vice versa) and finishes with the golden
// physics — the tally block is keyed by logical cell, so orderings are a
// free resume-time choice.
func TestLocalitySnapshotPortable(t *testing.T) {
	want := golden[mesh.CSP]
	take := goldenConfig(mesh.CSP)
	take.Ordering = mesh.Morton
	take.SortEvery = 1
	sim, err := NewSimulation(take)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	snap := sim.Snapshot()

	resume := goldenConfig(mesh.CSP) // row-major, no sort
	restored, err := RestoreSimulation(resume, snap)
	if err != nil {
		t.Fatal(err)
	}
	res, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := res.Counter
	got.OERounds, got.OESlotSweeps, got.OEActiveVisits = 0, 0, 0
	if got != want.counters {
		t.Errorf("counter vector drifted across ordering switch:\ngot  %+v\nwant %+v", got, want.counters)
	}
	if !goldenClose(res.TallyTotal, want.tallyTotal) {
		t.Errorf("tally total %.17g, want %.17g", res.TallyTotal, want.tallyTotal)
	}
	if sum := goldenBankSum(res.Bank); !goldenClose(sum, want.bankSum) {
		t.Errorf("bank checksum %.17g, want %.17g", sum, want.bankSum)
	}
}

// TestLocalityReset checks Reset re-permutes a reused mesh when the ordering
// changes: Morton → row-major → Morton across Resets of one Simulation, each
// leg reproducing the golden tally.
func TestLocalityReset(t *testing.T) {
	want := golden[mesh.CSP]
	cfg := goldenConfig(mesh.CSP)
	cfg.Ordering = mesh.Morton
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for leg, ord := range []mesh.Ordering{mesh.Morton, mesh.RowMajor, mesh.Morton} {
		if leg > 0 {
			next := goldenConfig(mesh.CSP)
			next.Ordering = ord
			next.SortEvery = leg // exercise both sort settings across legs
			if err := sim.Reset(next); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !goldenClose(res.TallyTotal, want.tallyTotal) {
			t.Errorf("leg %d (%v): tally total %.17g, want %.17g", leg, ord, res.TallyTotal, want.tallyTotal)
		}
	}
}
