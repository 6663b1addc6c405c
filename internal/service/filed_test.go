package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/tally"
)

// checkFiled files cells and requires the stored form to be what it claims:
// maximal runs of non-zero cells only, expanding to the same bits, and read
// back from its JSON to the same bits or failing with json.Marshal's error.
func checkFiled(t *testing.T, name string, cells []float64) {
	t.Helper()
	c := tally.Compact(cells)
	if c.N != len(cells) || len(c.Start) != len(c.End) {
		t.Fatalf("%s: %d cells filed as n=%d with %d starts and %d ends", name, len(cells), c.N, len(c.Start), len(c.End))
	}
	vals := 0
	for r := range c.Start {
		s, e := int(c.Start[r]), int(c.End[r])
		if s >= e || (r > 0 && s <= int(c.End[r-1])) {
			t.Fatalf("%s: run %d is [%d, %d) after one ending at %d: empty, overlapping or not maximal", name, r, s, e, c.End[max(r-1, 0)])
		}
		vals += e - s
	}
	if vals != len(c.Vals) {
		t.Fatalf("%s: runs cover %d cells, %d values kept", name, vals, len(c.Vals))
	}
	for i, f := range c.Vals {
		if math.Float64bits(f) == 0 {
			t.Fatalf("%s: value %d of the runs is +0", name, i)
		}
	}
	got := c.Dense(nil)
	if len(got) != len(cells) {
		t.Fatalf("%s: expands to %d cells, want %d", name, len(got), len(cells))
	}
	for i := range cells {
		if math.Float64bits(got[i]) != math.Float64bits(cells[i]) {
			t.Fatalf("%s: cell %d expands to %x, was %x", name, i, math.Float64bits(got[i]), math.Float64bits(cells[i]))
		}
	}
	checkEncodeRoundTrip(t, name, ResultView{TallyTotal: 2.5, Events: 9, Cells: c, Counters: &core.Counters{FacetEvents: 9}})
}

// TestFiledLossless: filing a result's cells loses nothing — not a bit of any
// cell, through its JSON form or not — on every shape a dense slice can take.
func TestFiledLossless(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name  string
		cells []float64
	}{
		{"nil", nil},
		{"empty", []float64{}},
		{"one zero", []float64{0}},
		{"one cell", []float64{1.5}},
		{"negative zero", []float64{0, negZero, 0}},
		{"subnormals", []float64{math.SmallestNonzeroFloat64, 0, -math.SmallestNonzeroFloat64, 0x0.8p-1022}},
		{"NaN", []float64{0, math.NaN(), 0}},
		{"+Inf", []float64{math.Inf(1)}},
		{"-Inf", []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, math.Inf(-1)}},
		{"all zero", make([]float64, 4099)},
		{"all non-zero", func() []float64 {
			c := make([]float64, 1031)
			for i := range c {
				c[i] = float64(i) + 0.25
			}
			return c
		}()},
	} {
		checkFiled(t, tc.name, tc.cells)
	}

	// Random tallies: zero runs at both ends and between, of every length
	// around the eight-cell skip, with any bit pattern in the runs.
	rnd := rand.New(rand.NewSource(29))
	for trial := 0; trial < 500; trial++ {
		var cells []float64
		for len(cells) < 2000 {
			cells = append(cells, make([]float64, rnd.Intn(40))...)
			for n := rnd.Intn(12); n > 0; n-- {
				switch rnd.Intn(4) {
				case 0:
					cells = append(cells, math.Float64frombits(rnd.Uint64()))
				case 1:
					cells = append(cells, negZero)
				default:
					cells = append(cells, rnd.ExpFloat64()*1e5)
				}
			}
			if rnd.Intn(8) == 0 {
				break
			}
		}
		checkFiled(t, "random", cells)
	}

	// A result, with cells or without, is kept as the very pointer it
	// arrived as, and encodes as its view.
	for _, res := range []*core.Result{{TallyTotal: 3}, referenceResult(t)} {
		f := fileResult(res)
		if f.Result() != res {
			t.Fatal("a result was not kept as its own pointer")
		}
		enc, err := f.encode(nil)
		want, werr := json.Marshal(resultViewOf(res))
		if err != nil || werr != nil || !bytes.Equal(enc, want) {
			t.Fatalf("filed result encodes unlike its view (err %v, %v)", err, werr)
		}
	}
}

// TestParseFiledRequiresCounters: every result encode writes carries its
// counters, so ParseFiled refuses a single-run body without them instead of
// rebuilding a partial counter vector from the summary fields.
func TestParseFiledRequiresCounters(t *testing.T) {
	res := referenceResult(t)
	body, err := fileResult(res).body(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFiled(body, res.Config); err != nil {
		t.Fatalf("the encoded body: %v", err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["counters"]; !ok {
		t.Fatal("the encoded body has no counters")
	}
	delete(doc, "counters")
	stripped, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFiled(stripped, res.Config); err == nil {
		t.Error("a result without counters was filed")
	}
}

// TestFiledBodyShared: a single run's body is marshalled by its first reader
// and every later reader, concurrent ones included, gets that same slice
// without allocating; encode is the slice less its newline, what the blob
// tier stores. An ensemble's body carries the serving job's statistics and is
// built per call.
func TestFiledBodyShared(t *testing.T) {
	f := fileResult(referenceResult(t))
	bodies := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if bodies[i], err = f.body(nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	body := bodies[0]
	for i, b := range bodies {
		if len(b) != len(body) || &b[0] != &body[0] {
			t.Fatalf("reader %d got its own body", i)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { f.body(nil) }); allocs != 0 {
		t.Errorf("a later body allocates %.0f times", allocs)
	}
	enc, err := f.encode(nil)
	if err != nil || len(enc)+1 != len(body) || &enc[0] != &body[0] || body[len(enc)] != '\n' {
		t.Fatalf("encode is not the body less its newline (err %v)", err)
	}
	ens := &EnsembleView{Replicas: 2, MeanTotal: 1}
	a, aerr := f.body(ens)
	b, berr := f.body(ens)
	if aerr != nil || berr != nil || &a[0] == &b[0] || !bytes.Equal(a, b) || bytes.Equal(a, body) || a[len(a)-1] != '\n' {
		t.Fatalf("ensemble bodies: shared %t, equal %t, errs %v %v", &a[0] == &b[0], bytes.Equal(a, b), aerr, berr)
	}
}

// FuzzFiledCells is TestFiledLossless's property over arbitrary bytes, read as
// float64 cells; a zero byte pair marks an eight-cell zero block, so the
// fuzzer reaches long zero runs without spelling out 64 zero bytes.
func FuzzFiledCells(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())))
	f.Add(binary.LittleEndian.AppendUint64([]byte{0, 0, 0, 0}, 1<<63))
	f.Fuzz(func(t *testing.T, data []byte) {
		var cells []float64
		for len(data) >= 2 {
			if data[0] == 0 && data[1] == 0 {
				cells = append(cells, make([]float64, 8)...)
				data = data[2:]
				continue
			}
			if len(data) < 8 {
				break
			}
			cells = append(cells, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		checkFiled(t, "fuzz", cells)
	})
}

// FuzzStoredResult: the one parser either rejects a document or files runs
// that lie within their n, and what it files encodes back to bytes it reads
// again to the same result — encoded once more, the same bytes.
func FuzzStoredResult(f *testing.F) {
	small := &core.Result{TallyTotal: 3, Wall: 5, Cells: tally.Compact([]float64{0, 1, 0, 0, 2, 3, 0})}
	for _, res := range []*core.Result{referenceResult(f), small, {TallyTotal: 3}} {
		data, err := fileResult(res).encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// The dense cells an older engine wrote: a document to reject.
	f.Add(denseDoc(f, small))
	for _, doc := range []string{
		`{}`, `{"runs":null}`, `{"runs":{"n":0}}`, `{"cells":[1],"runs":{"n":1}}`,
		`{"runs":{"n":4,"start":[0,3],"end":[2,4],"vals":[1,-0,2.5e-300]}}`,
		`{"runs":{"n":4,"start":[0,2],"end":[2,4],"vals":[1,2,3,4]}}`,
		`{"runs":{"n":2,"start":[1],"end":[3],"vals":[1,2]}}`,
		`{"runs":{"n":2,"start":[0],"end":[1],"vals":[0]}}`,
		`{"wall_seconds":-1e-9,"leakage":{"weight":{"x-lo":1}},"runs":{"n":1}}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ParseFiled(data, core.Config{})
		if err != nil {
			return
		}
		c := &got.res.Cells
		for r := range c.Start {
			if c.Start[r] < 0 || int(c.End[r]) > c.N {
				t.Fatalf("run %d is [%d, %d) of %d cells", r, c.Start[r], c.End[r], c.N)
			}
		}
		once, err := got.encode(nil)
		if err != nil {
			t.Fatalf("an accepted result does not encode: %v", err)
		}
		back, err := ParseFiled(once, core.Config{})
		if err != nil {
			t.Fatalf("encoded form %.200q does not read back: %v", once, err)
		}
		if !sameRuns(&back.res.Cells, c) {
			t.Fatal("runs changed through the encoded form")
		}
		if twice, err := back.encode(nil); err != nil || !bytes.Equal(twice, once) {
			t.Fatalf("encoded again as %.200q, was %.200q (err %v)", twice, once, err)
		}
	})
}

// sameRuns compares two filings of cells; a nil and an empty slice are alike.
func sameRuns(a, b *tally.Runs) bool {
	return a.N == b.N && slices.Equal(a.Start, b.Start) && slices.Equal(a.End, b.End) && slices.Equal(a.Vals, b.Vals)
}

// TestRememberedResultFootprint: what an engine keeps of a finished job grows
// with what the job deposited, not with its mesh. 200 distinct 256² keep_cells
// jobs, remembered by the engine and (the newest 128) by its LRU, may grow the
// live heap by 32 KB each; a dense 65 536-cell result alone is 512 KB.
func TestRememberedResultFootprint(t *testing.T) {
	e := New(Options{Shards: 1, ThreadsPerJob: 1})
	defer e.Close()
	run := func(seed uint64) {
		t.Helper()
		cfg := core.Default(mesh.CSP)
		cfg.NX, cfg.NY = 256, 256
		cfg.Particles = 50
		cfg.Steps = 1
		cfg.Seed = seed
		cfg.KeepCells = true
		j, err := e.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st := j.Status(); st.State != StateDone || st.Cached {
			t.Fatalf("seed %d: %+v", seed, st)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run(1) // the worker's simulation is built once, before the baseline
	base := heap()
	const jobs = 200
	for i := 0; i < jobs; i++ {
		run(uint64(100 + i))
	}
	grew := int64(heap()) - int64(base)
	if len(e.Jobs()) != jobs+1 {
		t.Fatalf("engine remembers %d jobs, want %d", len(e.Jobs()), jobs+1)
	}
	if per := grew / jobs; per > 32<<10 {
		t.Fatalf("live heap grew %d bytes per remembered job, want at most %d", per, 32<<10)
	} else {
		t.Logf("live heap grew %d bytes per remembered job", per)
	}
}
