package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/scene"
	"repro/internal/tally"
)

// stepsConfig is smallConfig with a multi-step horizon, the shape every
// lifecycle test wants.
func stepsConfig(p mesh.Problem, steps int) Config {
	cfg := smallConfig(p)
	cfg.Steps = steps
	return cfg
}

// TestRunEqualsStepwiseSnapshotRestore is the tentpole acceptance property:
// an uninterrupted Run must equal a run split into explicit Steps with a
// Snapshot/RestoreSimulation round-trip mid-run — same bank bit for bit,
// same event counters — for both schemes and both layouts. The counter-based
// RNG is what makes this achievable: each particle's stream resumes from
// the counter stored in its record.
func TestRunEqualsStepwiseSnapshotRestore(t *testing.T) {
	for _, scheme := range []Scheme{OverParticles, OverEvents} {
		for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
			t.Run(fmt.Sprintf("%v/%v", scheme, layout), func(t *testing.T) {
				cfg := stepsConfig(mesh.CSP, 4)
				cfg.Scheme = scheme
				cfg.Layout = layout

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
						t.Fatalf("step %d: %v", i, err)
					}
				}
				snap := sim.Snapshot()
				sim = nil // "crash": the original engine is gone

				resumed, err := RestoreSimulation(cfg, snap)
				if err != nil {
					t.Fatal(err)
				}
				if got := resumed.StepIndex(); got != 2 {
					t.Fatalf("restored at step %d, want 2", got)
				}
				for !resumed.Done() {
					if err := resumed.Step(); err != nil {
						t.Fatal(err)
					}
				}
				if err := resumed.Step(); !errors.Is(err, ErrFinished) {
					t.Fatalf("step past the end: %v, want ErrFinished", err)
				}
				res := resumed.Finalize()

				compareBanks(t, full.Bank, res.Bank)
				if full.Counter != res.Counter {
					t.Errorf("counters differ:\nfull    %+v\nresumed %+v", full.Counter, res.Counter)
				}
				if full.TallyTotal != res.TallyTotal {
					t.Errorf("tally totals differ: %.17g vs %.17g", full.TallyTotal, res.TallyTotal)
				}
				if res.Conservation.RelativeError > 1e-9 {
					t.Errorf("resumed conservation error %.3g", res.Conservation.RelativeError)
				}

				// In place: a simulation that ran something else (another
				// problem, the other scheme, another thread count) resumes
				// the same snapshot over its own bank, which it never lent
				// out and so reuses, stale records and all, and ends where
				// the uninterrupted run does, final snapshot bytes included.
				other := stepsConfig(mesh.Scatter, 1)
				other.Layout = layout
				other.KeepBank = false
				other.Threads = 3
				if scheme == OverParticles {
					other.Scheme = OverEvents
				}
				host, err := NewSimulation(other)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := host.Run(); err != nil {
					t.Fatal(err)
				}
				if err := host.Restore(cfg, snap); err != nil {
					t.Fatal(err)
				}
				if got := host.StepIndex(); got != 2 {
					t.Fatalf("in-place restore at step %d, want 2", got)
				}
				inPlace, err := host.Run()
				if err != nil {
					t.Fatal(err)
				}
				sameRun(t, "in-place restore", full, inPlace)
				if !bytes.Equal(host.Snapshot(), resumed.Snapshot()) {
					t.Error("in-place restore: final snapshot bytes differ from the fresh restore's")
				}
			})
		}
	}
}

// sameRun fails unless got reports the bank, counters, tally total, cells and
// leakage of want — everything a result carries that the execution strategy
// and the simulation's history must not move.
func sameRun(t *testing.T, what string, want, got *Result) {
	t.Helper()
	compareBanks(t, want.Bank, got.Bank)
	if want.Counter != got.Counter {
		t.Errorf("%s: counters differ:\nwant %+v\ngot  %+v", what, want.Counter, got.Counter)
	}
	if want.TallyTotal != got.TallyTotal {
		t.Errorf("%s: tally totals differ: %.17g vs %.17g", what, want.TallyTotal, got.TallyTotal)
	}
	if want.Leakage != got.Leakage {
		t.Errorf("%s: leakage differs: %+v vs %+v", what, want.Leakage, got.Leakage)
	}
	if len(want.Cells) != len(got.Cells) {
		t.Fatalf("%s: %d cells, want %d", what, len(got.Cells), len(want.Cells))
	}
	for i := range want.Cells {
		if want.Cells[i] != got.Cells[i] {
			t.Fatalf("%s: cell %d = %.17g, want %.17g", what, i, got.Cells[i], want.Cells[i])
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestSnapshotRoundTripLossless is the property test: Snapshot →
// RestoreSimulation is lossless for both layouts at every step boundary,
// including cross-layout restores (the record form is layout-independent).
func TestSnapshotRoundTripLossless(t *testing.T) {
	const steps = 3
	for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
		for _, restoreLayout := range []particle.Layout{particle.AoS, particle.SoA} {
			for boundary := 0; boundary <= steps; boundary++ {
				cfg := stepsConfig(mesh.Scatter, steps)
				cfg.Layout = layout
				cfg.Seed = 1000 + uint64(boundary) // vary the histories

				sim, err := NewSimulation(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < boundary; i++ {
					if err := sim.Step(); err != nil {
						t.Fatal(err)
					}
				}
				snap := sim.Snapshot()

				rcfg := cfg
				rcfg.Layout = restoreLayout
				restored, err := RestoreSimulation(rcfg, snap)
				if err != nil {
					t.Fatalf("%v->%v boundary %d: %v", layout, restoreLayout, boundary, err)
				}
				if restored.StepIndex() != boundary {
					t.Fatalf("restored step %d, want %d", restored.StepIndex(), boundary)
				}

				var want, got particle.Particle
				for i := 0; i < cfg.Particles; i++ {
					sim.r.bank.Load(i, &want)
					restored.r.bank.Load(i, &got)
					if want != got {
						t.Fatalf("%v->%v boundary %d: particle %d differs:\nwant %+v\ngot  %+v",
							layout, restoreLayout, boundary, i, want, got)
					}
				}
				origCells := sim.r.tly.Cells()
				restCells := restored.r.tly.Cells()
				for i := range origCells {
					if origCells[i] != restCells[i] {
						t.Fatalf("boundary %d: tally cell %d = %g, want %g",
							boundary, i, restCells[i], origCells[i])
					}
				}
				snap2 := restored.Snapshot()
				if len(snap2) != len(snap) {
					t.Fatalf("re-snapshot length %d, want %d", len(snap2), len(snap))
				}
			}
		}
	}
}

// TestSnapshotDecodeErrors covers the corrupted and short-buffer paths.
func TestSnapshotDecodeErrors(t *testing.T) {
	cfg := stepsConfig(mesh.CSP, 2)
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	snap := sim.Snapshot()

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 4, len(snapshotMagic), 40, len(snap) / 2, len(snap) - 1} {
			if _, err := RestoreSimulation(cfg, snap[:n]); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Errorf("truncation to %d bytes: %v, want ErrSnapshotCorrupt", n, err)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), snap...)
		bad[0] ^= 0xff
		if _, err := RestoreSimulation(cfg, bad); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("bad magic: %v, want ErrSnapshotCorrupt", err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		bad := append([]byte(nil), snap...)
		bad[len(snapshotMagic)] = 0xfe
		if _, err := RestoreSimulation(cfg, bad); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("bad version: %v, want ErrSnapshotCorrupt", err)
		}
	})
	t.Run("flipped-byte", func(t *testing.T) {
		bad := append([]byte(nil), snap...)
		bad[len(bad)/2] ^= 0x01
		if _, err := RestoreSimulation(cfg, bad); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("flipped byte: %v, want ErrSnapshotCorrupt (checksum)", err)
		}
	})
	t.Run("config-mismatch", func(t *testing.T) {
		other := cfg
		other.Seed++
		if _, err := RestoreSimulation(other, snap); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("different seed: %v, want ErrSnapshotMismatch", err)
		}
		other = cfg
		other.Particles *= 2
		if _, err := RestoreSimulation(other, snap); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("different population: %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("density-hook-mismatch", func(t *testing.T) {
		// A density field is a scene's regions, and they are physics:
		// restoring a snapshot of the plain scene under one with a dense
		// wall painted across it (or vice versa) must be refused.
		csp, err := scene.Preset(mesh.CSP)
		if err != nil {
			t.Fatal(err)
		}
		walled := cfg
		walled.Scene = csp.WithSources(csp.Sources...)
		walled.Scene.Regions = append(walled.Scene.Regions,
			scene.Region{Material: "dense", X0: 0, X1: mesh.Extent, Y0: 1.2, Y1: 1.3})
		if _, err := RestoreSimulation(walled, snap); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("added density wall: %v, want ErrSnapshotMismatch", err)
		}
		wsim, err := NewSimulation(walled)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreSimulation(cfg, wsim.Snapshot()); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("dropped density wall: %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("tally-out-of-order", func(t *testing.T) {
		// Every entry in range and the CRC right, but the cells are not the
		// strictly ascending list the writer emits: one cell named four
		// times with 2^62 ticks would sum to exactly zero.
		if _, err := RestoreSimulation(cfg, repeatTallyCell(t, sim, 4)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("one cell four times: %v, want ErrSnapshotCorrupt", err)
		}
		tail := len(snap) - 4 - 16*len(sim.r.tallyNonZeroLogical())
		swapped := append([]byte(nil), snap...)
		copy(swapped[tail:], snap[tail+16:tail+32])
		copy(swapped[tail+16:], snap[tail:tail+16])
		if _, err := RestoreSimulation(cfg, fixCRC(swapped)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("two cells swapped: %v, want ErrSnapshotCorrupt", err)
		}
	})
	t.Run("strategy-change-allowed", func(t *testing.T) {
		// Scheme, threads and tally are execution strategy, not physics:
		// a checkpoint resumes under any of them.
		other := cfg
		other.Scheme = OverEvents
		other.Threads = 2
		other.Tally = tally.ModePrivate
		if _, err := RestoreSimulation(other, snap); err != nil {
			t.Errorf("strategy change: %v, want success", err)
		}
	})
}

// repeatTallyCell returns sim's snapshot with the first n entries of its tally
// block all naming the first entry's cell with 2^62 ticks each, and the
// checksum recomputed.
func repeatTallyCell(tb testing.TB, sim *Simulation, n int) []byte {
	tb.Helper()
	snap := sim.Snapshot()
	nonzero := len(sim.r.tallyNonZeroLogical())
	if nonzero < n {
		tb.Fatalf("snapshot holds %d tally cells, need %d", nonzero, n)
	}
	tail := len(snap) - 4 - 16*nonzero
	for i := 0; i < n; i++ {
		copy(snap[tail+16*i:], snap[tail:tail+8])
		binary.LittleEndian.PutUint64(snap[tail+16*i+8:], 1<<62)
	}
	return fixCRC(snap)
}

// TestSimulationResetMatchesFresh pins the sweep-amortisation contract: a
// Reset simulation is indistinguishable from a fresh one, across problem,
// layout, scheme and thread changes, both when allocations are reused and
// when they must be rebuilt.
func TestSimulationResetMatchesFresh(t *testing.T) {
	first := stepsConfig(mesh.CSP, 2)
	sim, err := NewSimulation(first)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}

	cases := []Config{
		stepsConfig(mesh.CSP, 2),     // same shape: mesh, tables, bank all reused
		stepsConfig(mesh.Scatter, 1), // new problem: mesh rebuilt
		func() Config { // new layout + scheme + threads: bank and workers rebuilt
			c := stepsConfig(mesh.CSP, 2)
			c.Layout = particle.SoA
			c.Scheme = OverEvents
			c.Threads = 2
			return c
		}(),
	}
	for i, cfg := range cases {
		if err := sim.Reset(cfg); err != nil {
			t.Fatalf("reset %d: %v", i, err)
		}
		got, err := sim.Run()
		if err != nil {
			t.Fatalf("reset %d run: %v", i, err)
		}
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		compareBanks(t, want.Bank, got.Bank)
		if want.Counter != got.Counter {
			t.Errorf("reset %d: counters differ:\nfresh %+v\nreset %+v", i, want.Counter, got.Counter)
		}
		if want.TallyTotal != got.TallyTotal {
			t.Errorf("reset %d: tally totals differ: %.17g vs %.17g", i, want.TallyTotal, got.TallyTotal)
		}
	}

	// Restore is the same path: the simulation, last bound to the case before
	// (another problem, or another layout, scheme and thread count), resumes
	// each case from a mid-run snapshot another simulation took, and ends
	// where the uninterrupted run of that case does, snapshot bytes included.
	for i, cfg := range cases {
		fresh, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var mid []byte
		for !fresh.Done() {
			if fresh.StepIndex() == cfg.Steps/2 {
				mid = fresh.Snapshot()
			}
			if err := fresh.Step(); err != nil {
				t.Fatal(err)
			}
		}
		want := fresh.Finalize()

		if err := sim.Restore(cfg, mid); err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
		if sim.StepIndex() != cfg.Steps/2 {
			t.Fatalf("restore %d: at step %d, want %d", i, sim.StepIndex(), cfg.Steps/2)
		}
		got, err := sim.Run()
		if err != nil {
			t.Fatalf("restore %d run: %v", i, err)
		}
		sameRun(t, fmt.Sprintf("restore %d", i), want, got)
		if !bytes.Equal(sim.Snapshot(), fresh.Snapshot()) {
			t.Errorf("restore %d: final snapshot bytes differ from the uninterrupted run's", i)
		}
	}

	// And back: a Reset after a Restore carries nothing the snapshot brought
	// (restored counters, a mid-run step index, tally contents).
	if err := sim.Reset(cases[0]); err != nil {
		t.Fatal(err)
	}
	got, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(cases[0])
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "reset after restore", want, got)
}

// TestSnapshotVacuumSceneRoundTrip: a run over a vacuum-leakage scene split
// by a snapshot/restore mid-run matches the uninterrupted run exactly —
// escape counters, per-edge leakage tallies and the conservation baselines
// all survive the v4 format.
func TestSnapshotVacuumSceneRoundTrip(t *testing.T) {
	sc := leakScene(t)
	for _, scheme := range []Scheme{OverParticles, OverEvents} {
		cfg := stepsConfig(mesh.CSP, 3)
		cfg.Scene = sc
		cfg.Scheme = scheme

		full, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if full.Counter.Escapes == 0 {
			t.Fatal("leak scene produced no escapes")
		}

		sim, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		resumed, err := RestoreSimulation(cfg, sim.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		for !resumed.Done() {
			if err := resumed.Step(); err != nil {
				t.Fatal(err)
			}
		}
		res := resumed.Finalize()
		compareBanks(t, full.Bank, res.Bank)
		if full.Counter != res.Counter {
			t.Errorf("%v: counters differ:\nfull    %+v\nresumed %+v", scheme, full.Counter, res.Counter)
		}
		// Leakage accumulates in ticks, like the tally, so the restore
		// boundary leaves no trace in it.
		if full.Leakage != res.Leakage {
			t.Errorf("%v: leakage differs:\nfull    %+v\nresumed %+v", scheme, full.Leakage, res.Leakage)
		}
		if full.Conservation.BirthWeight != res.Conservation.BirthWeight ||
			full.Conservation.BirthEnergy != res.Conservation.BirthEnergy {
			t.Errorf("%v: birth baselines lost across restore", scheme)
		}
		if res.Conservation.RelativeError > 1e-9 {
			t.Errorf("%v: resumed conservation error %.3g", scheme, res.Conservation.RelativeError)
		}
	}
}

// TestSnapshotSceneMismatch: v4 checkpoints embed the scene; restoring under
// a config whose scene describes different physics is refused, while an
// inline scene physically equivalent to the snapshot's preset is accepted.
func TestSnapshotSceneMismatch(t *testing.T) {
	cfg := stepsConfig(mesh.CSP, 2) // preset scene via Validate
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	snap := sim.Snapshot()

	// Different physics: vacuum edges on the same geometry.
	other := cfg
	other.Scene = leakScene(t)
	if _, err := RestoreSimulation(other, snap); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("restore under a different scene: %v, want ErrSnapshotMismatch", err)
	}

	// Equivalent physics under different naming: accepted, and the restored
	// run finishes with the same result as the original config would.
	equiv := cfg
	equiv.Scene = &scene.Scene{
		Name: "csp-but-renamed",
		Materials: []scene.Material{
			{Name: "void", Density: mesh.VacuumDensity},
			{Name: "block", Density: mesh.DenseDensity},
		},
		Regions: []scene.Region{
			{Material: "block", X0: mesh.Extent / 3, X1: 2 * mesh.Extent / 3,
				Y0: mesh.Extent / 3, Y1: 2 * mesh.Extent / 3},
		},
		Sources: []scene.Source{{X0: 0, X1: mesh.Extent / 10, Y0: 0, Y1: mesh.Extent / 10}},
	}
	restored, err := RestoreSimulation(equiv, snap)
	if err != nil {
		t.Fatalf("restore under an equivalent inline scene: %v", err)
	}
	res, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareBanks(t, want.Bank, res.Bank)
	if want.Counter != res.Counter {
		t.Errorf("equivalent-scene restore drifted:\nwant %+v\ngot  %+v", want.Counter, res.Counter)
	}

	// A corrupted scene block (with the CRC recomputed, so the checksum
	// passes) fails structurally at the embedded-scene parse, not as a
	// mismatch.
	bad := append([]byte(nil), snap...)
	// The scene JSON starts after magic+version+hash+nextStep+counters+len.
	off := len(snapshotMagic) + 4 + 32 + 8 + 4 + 8*len(counterVector(&Counters{})) + 4
	bad[off] ^= 0xff
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
	if _, err := RestoreSimulation(cfg, bad); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("corrupted scene block: %v, want ErrSnapshotCorrupt", err)
	}
}

// TestSimulationInterrupt checks the cooperative stop: an interrupted Step
// reports ErrInterrupted and the simulation refuses further Steps.
func TestSimulationInterrupt(t *testing.T) {
	cfg := stepsConfig(mesh.CSP, 2)
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Interrupt()
	if err := sim.Step(); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("step after interrupt: %v, want ErrInterrupted", err)
	}
}
