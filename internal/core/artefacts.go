package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/mesh"
	"repro/internal/xs"
)

// artefactBudget bounds the bytes of built scenes the process retains, about
// four of the paper's 4000² meshes; a larger artefact is never retained.
const artefactBudget = 64 << 20

// artefactKey is exactly what an artefact is built from.
type artefactKey struct {
	scene            string // Scene.Hash()
	nx, ny, xsPoints int
	ordering         mesh.Ordering
}

// artefacts is what every run of one scene reads and none writes: one value
// serves every run of its key, on any goroutine, and is never written.
type artefacts struct {
	key  artefactKey
	mesh *mesh.Mesh // painted, then stored in the key's ordering
	xs   xs.Pair
	// nd is xs.NumberDensity per palette entry, which the kernels multiply
	// in xs.Macroscopic's order: every sigmaT keeps its bits, less a divide.
	nd      [mesh.MaxDensities]float64
	canLeak bool // mesh.HasVacuum(): reflective scenes take the inlined facet path
	bytes   int
	rhoMax  func() float64 // the weight window's peak density: one pass over the cells, once
}

func newArtefacts(key artefactKey, m *mesh.Mesh, pair xs.Pair) *artefacts {
	a := &artefacts{key: key, mesh: m, xs: pair, canLeak: m.HasVacuum(),
		bytes: m.Bytes() + pair.Bytes(), rhoMax: sync.OnceValue(m.MaxDensity)}
	for k, rho := range m.Palette() {
		a.nd[k] = xs.NumberDensity(rho)
	}
	return a
}

// scenes retains artefacts, most recently bound first, and counts binds. A
// run holds its own reference, so an eviction never touches a bound run.
var scenes = struct {
	sync.Mutex
	lru           list.List
	byKey         map[artefactKey]*list.Element
	bytes         int
	built, shared atomic.Uint64
}{byKey: map[artefactKey]*list.Element{}}

// sharedArtefacts returns the retained artefacts of k, or nil.
func sharedArtefacts(k artefactKey) *artefacts {
	scenes.Lock()
	defer scenes.Unlock()
	if e := scenes.byKey[k]; e != nil {
		scenes.shared.Add(1)
		scenes.lru.MoveToFront(e)
		return e.Value.(*artefacts)
	}
	return nil
}

// publish retains a fresh a within the budget, least recently bound out first,
// and returns a, or the copy a concurrent build of its key retained first.
func publish(a *artefacts) *artefacts {
	scenes.built.Add(1)
	if a.bytes > artefactBudget {
		return a
	}
	scenes.Lock()
	defer scenes.Unlock()
	if e := scenes.byKey[a.key]; e != nil {
		return e.Value.(*artefacts)
	}
	scenes.byKey[a.key] = scenes.lru.PushFront(a)
	for scenes.bytes += a.bytes; scenes.bytes > artefactBudget; {
		old := scenes.lru.Remove(scenes.lru.Back()).(*artefacts)
		delete(scenes.byKey, old.key)
		scenes.bytes -= old.bytes
	}
	return a
}

// SceneArtefacts reports how many scene artefacts (painted mesh and
// cross-section tables) the process has built, and how many binds shared one.
func SceneArtefacts() (built, shared uint64) {
	return scenes.built.Load(), scenes.shared.Load()
}
