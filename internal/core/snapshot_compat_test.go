package core

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/tally"
)

// TestSnapshotParentCompat pins the v5 checkpoint format to a file: the
// fixture was written by the commit before the divide-free arithmetic and the
// single-allocation Snapshot (csp, 16², 32 particles, after step 1 of 2). It
// must restore, a Snapshot of the restored state must reproduce it byte for
// byte — for either bank layout and any tally that can hold it — and the
// resumed run must finish conserving energy.
func TestSnapshotParentCompat(t *testing.T) {
	fixture, err := os.ReadFile("testdata/snapshot_v5_parent.bin")
	if err != nil {
		t.Fatal(err)
	}
	base := Default(mesh.CSP)
	base.NX, base.NY = 16, 16
	base.Particles = 32
	base.Steps = 2
	base.Threads = 1
	for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
		for _, tm := range []tally.Mode{tally.ModeAtomic, tally.ModeBuffered, tally.ModePrivate, tally.ModeSerial} {
			for _, ord := range []mesh.Ordering{mesh.RowMajor, mesh.Morton} {
				t.Run(fmt.Sprintf("%v/%v/%v", layout, tm, ord), func(t *testing.T) {
					cfg := base
					cfg.Layout, cfg.Tally, cfg.Ordering = layout, tm, ord
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
							t.Fatalf("re-snapshot differs from the parent-written bytes (%d vs %d bytes)", len(got), len(fixture))
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
