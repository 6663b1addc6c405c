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
	"testing"

	"repro/internal/core"
	"repro/internal/mesh"
)

// checkFiled files cells and requires the stored form to be what it claims:
// maximal runs of non-zero cells only, expanding to the same bits, and read
// back from its JSON to the same bits or failing with json.Marshal's error.
func checkFiled(t *testing.T, name string, cells []float64) {
	t.Helper()
	c := compactCells(cells)
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
	got := c.expand(nil)
	if len(got) != len(cells) {
		t.Fatalf("%s: expands to %d cells, want %d", name, len(got), len(cells))
	}
	for i := range cells {
		if math.Float64bits(got[i]) != math.Float64bits(cells[i]) {
			t.Fatalf("%s: cell %d expands to %x, was %x", name, i, math.Float64bits(got[i]), math.Float64bits(cells[i]))
		}
	}
	checkEncodeRoundTrip(t, name, ResultView{TallyTotal: 2.5, Events: 9, Cells: cells})
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

	// A result without cells is kept as the very pointer it arrived as; one
	// with cells builds its dense result once, bit for bit.
	bare := &core.Result{TallyTotal: 3}
	if f := fileResult(bare); f.res != bare || f.Result() != bare {
		t.Fatal("a result without cells was not kept as its own pointer")
	}
	res := referenceResult(t)
	f := fileResult(res)
	if f.res.Cells != nil || res.Cells == nil {
		t.Fatal("filing must take the cells out of a copy, not out of the caller's result")
	}
	dense := f.Result()
	if dense != f.Result() || dense.TallyTotal != res.TallyTotal || len(dense.Cells) != len(res.Cells) {
		t.Fatal("dense result not built once from the filed one")
	}
	for i := range res.Cells {
		if math.Float64bits(dense.Cells[i]) != math.Float64bits(res.Cells[i]) {
			t.Fatalf("reference cell %d: %v, was %v", i, dense.Cells[i], res.Cells[i])
		}
	}
	view := resultViewOf(res)
	view.Cells = nil
	enc, err := f.encode(nil)
	want, werr := json.Marshal(storedResult{plainView(view), &f.cells})
	if err != nil || werr != nil || !bytes.Equal(enc, want) {
		t.Fatalf("filed reference result encodes unlike its view and runs (err %v, %v)", err, werr)
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
	small := &core.Result{TallyTotal: 3, Wall: 5, Cells: []float64{0, 1, 0, 0, 2, 3, 0}}
	for _, res := range []*core.Result{referenceResult(f), small, {TallyTotal: 3}} {
		data, err := fileResult(res).encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// The dense cells an older engine wrote: a document to reject.
	dense, err := json.Marshal(resultViewOf(small))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dense)
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
		c := &got.cells
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
		if !sameRuns(&back.cells, c) {
			t.Fatal("runs changed through the encoded form")
		}
		if twice, err := back.encode(nil); err != nil || !bytes.Equal(twice, once) {
			t.Fatalf("encoded again as %.200q, was %.200q (err %v)", twice, once, err)
		}
	})
}

// sameRuns compares two filings of cells; a nil and an empty slice are alike.
func sameRuns(a, b *cellRuns) bool {
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
