package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/particle"
)

// compatConfig is the configuration both fixtures were written under: csp,
// 16², 32 particles, after step 1 of 2.
func compatConfig() Config {
	cfg := Default(mesh.CSP)
	cfg.NX, cfg.NY = 16, 16
	cfg.Particles = 32
	cfg.Steps = 2
	return cfg
}

// TestSnapshotParentCompat pins the v6 checkpoint format to a file written
// by the commit that introduced it (AoS, row-major, atomic tally). It must
// restore, a Snapshot of the restored state must reproduce it byte for byte —
// for either bank layout, either ordering, every tally leg and whatever the
// thread budget, since the tally and leakage blocks are integer ticks — and
// the resumed run must finish conserving energy.
func TestSnapshotParentCompat(t *testing.T) {
	fixture, err := os.ReadFile("testdata/snapshot_v6.bin")
	if err != nil {
		t.Fatal(err)
	}
	base := compatConfig()
	for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
		for _, leg := range []tallyLeg{legAtomic, legBuffered, legPrivate, legSerial} {
			for _, ord := range []mesh.Ordering{mesh.RowMajor, mesh.Morton} {
				t.Run(fmt.Sprintf("%v/%v/%v", layout, leg, ord), func(t *testing.T) {
					cfg := base
					cfg.Layout, cfg.Ordering = layout, ord
					leg.apply(&cfg)
					sim, err := RestoreSimulation(cfg, fixture)
					if err != nil {
						t.Fatal(err)
					}
					if sim.StepIndex() != 1 || sim.TallyTotal() <= 0 {
						t.Fatalf("restored at step %d with tally %g", sim.StepIndex(), sim.TallyTotal())
					}
					got := sim.Snapshot()
					// Bytes 0 and 1 of the bank header record the layout and
					// ordering the snapshot was taken under (informational);
					// the fixture is AoS, row-major.
					if layout == particle.AoS && ord == mesh.RowMajor {
						if !bytes.Equal(got, fixture) {
							t.Fatalf("re-snapshot differs from the fixture (%d vs %d bytes)", len(got), len(fixture))
						}
					} else if len(got) != len(fixture) {
						t.Fatalf("re-snapshot is %d bytes, fixture %d", len(got), len(fixture))
					}
					back, err := RestoreSimulation(base, got)
					if err != nil {
						t.Fatal(err)
					}
					if again := back.Snapshot(); !bytes.Equal(again, fixture) {
						t.Fatal("snapshot did not survive a cross-strategy round trip byte for byte")
					}
					res, err := sim.Run()
					if err != nil {
						t.Fatal(err)
					}
					if res.Conservation.RelativeError > 1e-12 {
						t.Errorf("resumed run conservation error %.3g", res.Conservation.RelativeError)
					}
				})
			}
		}
	}
}

// TestSnapshotV5Refused: a checkpoint written before the fixed-point tally
// (the last v5 one, same configuration) holds float sums this code cannot
// adopt; it is refused by version, not misreported as damaged or mismatched.
func TestSnapshotV5Refused(t *testing.T) {
	old, err := os.ReadFile("testdata/snapshot_v5_parent.bin")
	if err != nil {
		t.Fatal(err)
	}
	_, err = RestoreSimulation(compatConfig(), old)
	if !errors.Is(err, ErrSnapshotCorrupt) || !strings.Contains(err.Error(), "unsupported version 5") {
		t.Fatalf("restoring a v5 snapshot: %v, want the unsupported-version error", err)
	}
}
