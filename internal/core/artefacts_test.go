package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mesh"
	"repro/internal/scene"
)

// clearArtefacts empties the process's artefact memo, as a fresh process has it.
func clearArtefacts() {
	scenes.Lock()
	defer scenes.Unlock()
	scenes.lru.Init()
	clear(scenes.byKey)
	scenes.bytes = 0
}

// retained reports whether the memo holds an artefact of cfg's inputs; a
// config Validate refuses keys by the inputs it asked for.
func retained(cfg Config) bool {
	_ = cfg.Validate()
	scenes.Lock()
	defer scenes.Unlock()
	return scenes.byKey[artefactKey{cfg.Scene.Hash(), cfg.NX, cfg.NY, cfg.XSPoints, cfg.Ordering}] != nil
}

// TestSceneArtefactsShared is the sharing contract of a scene's artefacts:
// runs of one scene, resolution, ordering and table size share one mesh and
// one cross-section pair, and any other input builds its own. Two simulations
// bound in each row are run from two goroutines at once, and each must give
// the cells, counters and leakage of a plain Run of its config, bit for bit.
// A refused build publishes nothing, and the memo keeps within its budget.
func TestSceneArtefactsShared(t *testing.T) {
	base := leakConfig(t) // vacuum edges: the leakage is not all zero
	base.Threads = 2
	reseeded := base
	reseeded.Seed++
	morton := base
	morton.Ordering = mesh.Morton
	other := base
	other.Scene = Default(mesh.Scatter).Scene
	for _, row := range []struct {
		name  string
		first Config
		next  Config
		reset bool // next rebinds first's simulation instead of a second one
		share bool
	}{
		{"same scene, new seed", base, reseeded, false, true},
		{"morton and row-major", base, morton, false, false},
		{"reset to the same scene", base, reseeded, true, true},
		{"reset to another scene", base, other, true, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			a, err := NewSimulation(row.first)
			if err != nil {
				t.Fatal(err)
			}
			firstArt := a.r.artefacts
			var b *Simulation
			if row.reset {
				// a moves on to next, and a fresh simulation takes its
				// place on first.
				if err := a.Reset(row.next); err != nil {
					t.Fatal(err)
				}
				b = a
				a, err = NewSimulation(row.first)
			} else {
				b, err = NewSimulation(row.next)
			}
			if err != nil {
				t.Fatal(err)
			}
			if a.r.artefacts != firstArt {
				t.Error("a second bind of one scene built its artefacts again")
			}
			if got := a.r.artefacts == b.r.artefacts; got != row.share {
				t.Errorf("artefacts shared = %t, want %t", got, row.share)
			}
			if got := a.r.mesh == b.r.mesh || a.r.ctx.XS.Capture == b.r.ctx.XS.Capture; got != row.share {
				t.Errorf("mesh or tables shared = %t, want %t", got, row.share)
			}

			sims, cfgs := []*Simulation{a, b}, []Config{row.first, row.next}
			got := make([]*Result, 2)
			var wg sync.WaitGroup
			for i := range sims {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], _ = sims[i].Run()
				}()
			}
			wg.Wait()
			for i, cfg := range cfgs {
				want, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] == nil {
					t.Fatalf("simulation %d failed", i)
				}
				sameResult(t, fmt.Sprintf("simulation %d", i), got[i], want)
			}
		})
	}

	t.Run("refused build", func(t *testing.T) {
		// One distinct density a cell along the bottom rows, one more than
		// a mesh holds.
		bad := base
		sc := base.Scene.WithSources(base.Scene.Sources...)
		const pitch = mesh.Extent / 64
		for k := 0; k < mesh.MaxDensities-1; k++ {
			name := fmt.Sprintf("m%d", k)
			x, y := float64(k%64)*pitch, float64(k/64)*pitch
			sc.Materials = append(sc.Materials, scene.Material{Name: name, Density: float64(k + 1)})
			sc.Regions = append(sc.Regions, scene.Region{Material: name, X0: x, X1: x + pitch, Y0: y, Y1: y + pitch})
		}
		bad.Scene = sc
		builtBefore, _ := SceneArtefacts()
		if _, err := NewSimulation(bad); !errors.Is(err, mesh.ErrTooManyDensities) {
			t.Fatalf("NewSimulation = %v, want ErrTooManyDensities", err)
		}
		if retained(bad) {
			t.Error("a refused build left an entry")
		}
		if built, _ := SceneArtefacts(); built != builtBefore {
			t.Errorf("a refused build counted as built (%d → %d)", builtBefore, built)
		}
	})

	t.Run("budget", func(t *testing.T) {
		clearArtefacts()
		t.Cleanup(clearArtefacts)
		// The stream preset paints no region: its mesh is an untouched
		// allocation of one byte a cell, 16 MiB at this size.
		big := Default(mesh.Stream)
		big.Particles, big.Threads = 10, 1
		var bound []Config
		for k := 0; k < 6; k++ {
			cfg := big
			cfg.NX, cfg.NY = 4096, 4096-k
			if err := new(run).bind(cfg); err != nil {
				t.Fatal(err)
			}
			bound = append(bound, cfg)
			if scenes.bytes > artefactBudget {
				t.Fatalf("after %d binds the memo holds %d bytes, over the %d budget", k+1, scenes.bytes, artefactBudget)
			}
		}
		if retained(bound[0]) || !retained(bound[len(bound)-1]) {
			t.Error("the memo evicted other than the least recently bound")
		}
		over := big
		over.NX, over.NY = 8192, 8192 // 64 MiB of cells and the tables
		builtBefore, _ := SceneArtefacts()
		for i := 0; i < 2; i++ {
			if err := new(run).bind(over); err != nil {
				t.Fatal(err)
			}
		}
		if retained(over) {
			t.Error("an artefact larger than the budget was retained")
		}
		if !retained(bound[len(bound)-1]) {
			t.Error("an artefact larger than the budget evicted the retained ones")
		}
		if built, _ := SceneArtefacts(); built != builtBefore+2 {
			t.Errorf("two binds over the budget built %d artefacts, want 2", built-builtBefore)
		}
	})
}

// sameResult compares the physics of two results bit for bit: cells,
// counters and leakage.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Counter != want.Counter {
		t.Errorf("%s: counters %+v, want %+v", what, got.Counter, want.Counter)
	}
	if got.Leakage != want.Leakage {
		t.Errorf("%s: leakage %+v, want %+v", what, got.Leakage, want.Leakage)
	}
	if !reflect.DeepEqual(got.Cells, want.Cells) {
		t.Fatalf("%s: cells %+v, want %+v", what, got.Cells, want.Cells)
	}
}
