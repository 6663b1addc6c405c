package service

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/service/blob"
	"repro/internal/tally"
	"repro/internal/telemetry"
)

// finished submits cfg and waits for the job, reporting whether it was served
// from the store.
func finished(t *testing.T, e *Engine, cfg core.Config) (*core.Result, bool) {
	t.Helper()
	j, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res, j.Status().Cached
}

// TestStrategyVariantsShareOneStoredResult: a job is its physics. The same
// physics asked for under another execution strategy is the same job — served
// from the LRU without a second solve, and, by a new engine over the same
// blob store, from the persistent tier, with the tally and every cell equal.
func TestStrategyVariantsShareOneStoredResult(t *testing.T) {
	blobs := fsStore(t, t.TempDir())
	cfg := ckptConfig(2)
	cfg.Threads = 1
	cfg.KeepCells = true

	e := New(Options{Shards: 1, Blobs: blobs})
	defer e.Close()
	first, cached := finished(t, e, cfg)
	if cached {
		t.Fatal("first submission was served from an empty store")
	}
	variant := cfg
	variant.Threads, variant.Scheme, variant.Layout = 2, core.OverEvents, particle.SoA
	variant.Tally, variant.Schedule.Kind = tally.ModePrivate, core.ScheduleDynamic
	if res, cached := finished(t, e, variant); !cached || res != first {
		t.Errorf("strategy variant: cached = %t, same result = %t; want the first job's result from the LRU", cached, res == first)
	}
	if st := e.Stats(); st.Runs != 1 || st.Cache.Entries != 1 {
		t.Errorf("after two strategies of one physics: %d runs, %d cache entries; want 1 and 1", st.Runs, st.Cache.Entries)
	}

	restarted := New(Options{Shards: 1, Blobs: blobs})
	defer restarted.Close()
	variant.Threads, variant.Ordering, variant.SortEvery = 0, mesh.Morton, 1
	res, cached := finished(t, restarted, variant)
	if !cached || restarted.Stats().Runs != 0 || restarted.store.blobHits.Value() != 1 {
		t.Fatalf("third strategy on a restarted engine: cached = %t, %d runs, %v blob hits; want a blob-tier hit and no solve",
			cached, restarted.Stats().Runs, restarted.store.blobHits.Value())
	}
	if res.TallyTotal != first.TallyTotal || !reflect.DeepEqual(res.Cells, first.Cells) {
		t.Error("the blob tier's result differs from the one computed")
	}
}

// TestWireFormResultBlobIsAMiss: a result blob that is not the one JSON form
// is not read — the dense cells an older engine stored, a document with both
// cells and runs, or runs of another mesh's cells. The lookup misses and deletes it, and the job that then
// solves persists the result as its runs.
func TestWireFormResultBlobIsAMiss(t *testing.T) {
	cfg := ckptConfig(1)
	cfg.KeepCells = true
	key, err := identify(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wire := denseDoc(t, ref)
	mem := blob.NewMem()
	s := newStore(0, mem, telemetry.NewRegistry())
	for _, doc := range [][]byte{wire, []byte(`{"cells":[1,2,3],"runs":{"n":3}}`), []byte(`{"runs":{"n":3}}`)} {
		if err := mem.Put(resultKey(key), doc); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := s.get(key, cfg); ok {
			t.Fatalf("blob %.60q was read as a stored result", doc)
		}
		if _, err := mem.Get(resultKey(key)); err == nil {
			t.Fatalf("the unreadable blob %.60q was not deleted", doc)
		}
	}

	mem.Put(resultKey(key), wire)
	e := New(Options{Shards: 1, Blobs: mem})
	defer e.Close()
	res, cached := finished(t, e, cfg)
	if cached || e.Stats().Runs != 1 || e.store.blobHits.Value() != 0 {
		t.Fatalf("cached = %t, %d runs, %v blob hits; want one solve", cached, e.Stats().Runs, e.store.blobHits.Value())
	}
	if res.TallyTotal != ref.TallyTotal || !reflect.DeepEqual(res.Cells, ref.Cells) {
		t.Error("the solve differs from the reference run")
	}
	data, err := mem.Get(resultKey(key))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFiled(data, cfg); err != nil {
		t.Errorf("the solve did not re-persist its result as runs: %v", err)
	}
	other := cfg
	other.NX++
	if _, err := ParseFiled(data, other); err == nil {
		t.Errorf("the runs of a %dx%d mesh were filed for a %dx%d one", cfg.NX, cfg.NY, other.NX, other.NY)
	}
}

// TestKeepBankKeysItsLayout: the one place strategy shows in what is handed
// back is a kept bank, whose layout tag and slot order are the producing
// run's — so a KeepBank request under another layout is another job, while
// one under another scheme or thread count is not.
func TestKeepBankKeysItsLayout(t *testing.T) {
	e := New(Options{Shards: 1})
	defer e.Close()
	cfg := ckptConfig(1)
	cfg.KeepBank = true
	if _, cached := finished(t, e, cfg); cached {
		t.Fatal("first submission was served from an empty store")
	}
	soa := cfg
	soa.Layout = particle.SoA
	if res, cached := finished(t, e, soa); cached || res.Bank.Layout() != particle.SoA {
		t.Errorf("KeepBank under SoA: cached = %t, bank layout %v; want a solve that returns an SoA bank", cached, res.Bank.Layout())
	}
	cfg.Scheme, cfg.Threads = core.OverEvents, 2
	if _, cached := finished(t, e, cfg); !cached {
		t.Error("KeepBank under another scheme and thread count missed the store")
	}
}
