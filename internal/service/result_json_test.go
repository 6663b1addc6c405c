package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/service/blob"
	"repro/internal/stats"
	"repro/internal/tally"
)

// referenceResult is the service's reference job — csp, 256², 2 000
// particles, keep_cells — solved once: the result every benchmark workload of
// the serving tier moves around, ≈ 9 KB as runs and 137 KB as dense cells.
func referenceResult(tb testing.TB) *core.Result {
	tb.Helper()
	cfg := core.Default(mesh.CSP)
	cfg.NX, cfg.NY = 256, 256
	cfg.Particles = 2000
	cfg.Steps = 2
	cfg.KeepCells = true
	res, err := core.Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkResultJSON times the fixed costs of a result's one JSON form:
// encoding it (once per filed result, which its blob-tier put and every GET
// /result then share), serving it to GET /result from the LRU, decoding it
// into a Go client's view, filing it (every remote result on a coordinator,
// every blob-tier hit), filing a fresh result, and a whole LRU hit as a
// client sees it.
func BenchmarkResultJSON(b *testing.B) {
	res := referenceResult(b)
	f := fileResult(res)
	data, err := f.encode(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			// A fresh filing's first encode: what a solve pays once.
			fresh := &Filed{res: f.res, view: f.view}
			if _, err := fresh.encode(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serve", func(b *testing.B) {
		// GET /result of a job born from an LRU hit, through a loopback
		// server: routing, the job lookup and writing the shared body.
		e := New(Options{Shards: 1})
		defer e.Close()
		var hit *Job
		for range 2 {
			if hit, err = e.Submit(res.Config); err != nil {
				b.Fatal(err)
			}
			if err := hit.Wait(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
		if !hit.Status().Cached {
			b.Fatal("the repeat submit was not an LRU hit")
		}
		ts := httptest.NewServer(NewServer(e))
		defer ts.Close()
		url := ts.URL + "/v1/jobs/" + hit.ID() + "/result"
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			n, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || n != resp.ContentLength {
				b.Fatalf("status %d, %d of %d bytes, err %v", resp.StatusCode, n, resp.ContentLength, err)
			}
			b.SetBytes(n)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var rv ResultView
			if err := json.Unmarshal(data, &rv); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-filed", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := ParseFiled(data, res.Config); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("file", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if fileResult(res).view.Cells.N == 0 {
				b.Fatal("no cells filed")
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		// A serve_mixed hit as a Go client makes it, through a loopback
		// server whose LRU holds the reference result: POST its spec, GET
		// the result of the job the hit made, decode it.
		e := New(Options{Shards: 1})
		defer e.Close()
		if j, err := e.Submit(res.Config); err != nil || j.Wait(context.Background()) != nil {
			b.Fatalf("solving the reference: %v", err)
		}
		ts := httptest.NewServer(NewServer(e))
		defer ts.Close()
		const spec = `{"problem":"csp","nx":256,"particles":2000,"steps":2,"keep_cells":true}`
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
			if err != nil {
				b.Fatal(err)
			}
			var jv JobView
			err = json.NewDecoder(resp.Body).Decode(&jv)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || !jv.Cached {
				b.Fatalf("submit: status %d, cached %t, err %v", resp.StatusCode, jv.Cached, err)
			}
			if resp, err = http.Get(ts.URL + "/v1/jobs/" + jv.ID + "/result?wait=true"); err != nil {
				b.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			var rv ResultView
			if err == nil {
				err = json.Unmarshal(body, &rv)
			}
			if err != nil || resp.StatusCode != http.StatusOK || len(rv.Cells.Vals) != len(res.Cells.Vals) {
				b.Fatalf("result: status %d, %d cell values, err %v", resp.StatusCode, len(rv.Cells.Vals), err)
			}
		}
	})
}

// checkEncodeRoundTrip writes v in the one JSON form and requires the document
// to read back through UnmarshalJSON and ParseFiled to every run value's bits
// and every other field; a view JSON cannot carry (NaN, ±Inf) must fail with
// json.Marshal's error.
func checkEncodeRoundTrip(t *testing.T, name string, v ResultView) {
	t.Helper()
	data, err := json.Marshal(v)
	var unsupported *json.UnsupportedValueError
	if err != nil {
		if !errors.As(err, &unsupported) {
			t.Fatalf("%s: %v", name, err)
		}
		return
	}
	var back ResultView
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("%s: UnmarshalJSON: %v", name, err)
	}
	filed, err := ParseFiled(data, core.Config{})
	if err != nil {
		t.Fatalf("%s: ParseFiled: %v", name, err)
	}
	checkSameCells(t, name+": UnmarshalJSON", back.Cells.Vals, v.Cells.Vals)
	checkSameCells(t, name+": ParseFiled", filed.Result().Cells.Vals, v.Cells.Vals)
	if !reflect.DeepEqual(back, v) {
		t.Fatalf("%s: fields differ through UnmarshalJSON:\n got  %+v\n want %+v", name, back, v)
	}
	if fres, wres := *filed.Result(), *v.result(core.Config{}); !reflect.DeepEqual(fres, wres) {
		t.Fatalf("%s: ParseFiled result differs:\n got  %+v\n want %+v", name, fres, wres)
	}
}

// TestResultEncodeMatchesStdlib: the one JSON form carries any cells JSON can
// — positive zero (a gap) and negative zero (a value), both sides of each
// exponent-form cutoff, subnormals, the extremes and a million random bit
// patterns — with and without the optional blocks, back to the same bits, and
// fails with json.Marshal's error on the cells it cannot.
func TestResultEncodeMatchesStdlib(t *testing.T) {
	negZero := math.Copysign(0, -1)
	edges := []float64{0, negZero, 1, -1, 0.1, 1e-7, 1e-6, math.Nextafter(1e-6, 0), 9.5e-10, 1e-10, 1e-100,
		1e20, 1e21, math.Nextafter(1e21, 0), 1e22, 1e100, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x0.8p-1022, 1 << 53, 1<<53 + 2, 123456.789}
	for _, f := range edges {
		checkEncodeRoundTrip(t, strconv.FormatFloat(f, 'g', -1, 64), ResultView{Cells: tally.Compact([]float64{f}), Counters: &core.Counters{}})
	}

	cells := make([]float64, 0, 1_100_000)
	cells = append(cells, edges...)
	rnd := rand.New(rand.NewSource(26))
	for len(cells) < cap(cells) {
		switch f := math.Float64frombits(rnd.Uint64()); {
		case math.IsNaN(f) || math.IsInf(f, 0):
		case rnd.Intn(10) == 0:
			cells = append(cells, f) // any magnitude
		case rnd.Intn(3) == 0:
			cells = append(cells, math.Ldexp(rnd.Float64(), rnd.Intn(120)-60)) // around the cutoffs
		default:
			cells = append(cells, 0, negZero, 0) // a tally is mostly zeros
		}
	}
	checkEncodeRoundTrip(t, "random", ResultView{TallyTotal: 1.5, Events: 7, Cells: tally.Compact(cells), Counters: &core.Counters{FacetEvents: 7}})

	full := resultViewOf(referenceResult(t))
	checkEncodeRoundTrip(t, "reference", full)
	full.Escapes = 3
	full.Leakage = &LeakageView{Weight: map[string]float64{"x-lo": 1e-9}, Energy: map[string]float64{"x-lo": 2.5}, TotalEnergy: 2.5}
	full.Ensemble = &EnsembleView{Replicas: 2, MeanTotal: 1e21, ReplicaTotals: []float64{0, 1}, RelErr: []float64{0, 0.5}}
	full.PhaseTimings = map[string]float64{"fused": 0.25, "merge": 1e-7}
	checkEncodeRoundTrip(t, "every block set", full)
	full.Cells = tally.Compact(full.Cells.Dense(nil)[:1])
	checkEncodeRoundTrip(t, "one cell", full)
	full.Cells = tally.Runs{N: 64}
	checkEncodeRoundTrip(t, "no deposit", full)
	full.Cells = tally.Runs{}
	checkEncodeRoundTrip(t, "no cells", full)

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkEncodeRoundTrip(t, "unsupported cell", ResultView{Cells: tally.Compact([]float64{0, bad, 1})})
		checkEncodeRoundTrip(t, "unsupported field", ResultView{TallyTotal: bad, Cells: tally.Compact([]float64{0, 1})})
	}
}

// checkSameCells fails unless got holds want's bits, nil and empty told apart.
func checkSameCells(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%s: %d cells (nil %t), want %d (nil %t)", what, len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: cell %d = %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// plainResultView is ResultView without its UnmarshalJSON: what encoding/json
// alone makes of a document.
type plainResultView ResultView

// denseDoc is res as an engine wrote it before results travelled as runs: the
// members, and the cells as a dense array.
func denseDoc(tb testing.TB, res *core.Result) []byte {
	tb.Helper()
	var doc map[string]any
	data, err := json.Marshal(resultViewOf(res))
	if err == nil {
		err = json.Unmarshal(data, &doc)
	}
	delete(doc, "runs")
	doc["cells"] = res.Cells.Dense(nil)
	if data, err = json.Marshal(doc); err != nil {
		tb.Fatal(err)
	}
	return data
}

// checkDecodeMatchesStdlib decodes doc three ways — json.Unmarshal into a
// ResultView, a direct UnmarshalJSON call (which skips encoding/json's
// pre-scan of the document) and ParseFiled — against encoding/json's own
// reading of it. Each fails where encoding/json does, with its error, and on a
// dense cells member and runs a result does not file; otherwise each reads
// what encoding/json reads, the run values' bits with nil and empty told
// apart. ParseFiled also refuses a document without counters. The client's
// decode and ParseFiled each allocate at most decodeAllocPerByte bytes per
// byte of doc and decodeAllocFixed more, whatever n the runs declare.
func checkDecodeMatchesStdlib(t *testing.T, doc string) {
	t.Helper()
	var got, direct ResultView
	var want plainResultView
	var dense struct {
		Cells json.RawMessage `json:"cells"`
	}
	var gerr, ferr error
	var filed *Filed
	ceiling := decodeAllocPerByte*uint64(len(doc)) + decodeAllocFixed
	for _, decode := range []func(){
		func() { gerr = json.Unmarshal([]byte(doc), &got) },
		func() { filed, ferr = ParseFiled([]byte(doc), core.Config{}) },
	} {
		if n := allocated(decode); n > ceiling {
			t.Fatalf("doc %.80q: a decode allocated %d bytes, over its ceiling of %d", doc, n, ceiling)
		}
	}
	derr := direct.UnmarshalJSON([]byte(doc))
	werr := json.Unmarshal([]byte(doc), &want)
	refused := werr == nil && (json.Unmarshal([]byte(doc), &dense) != nil || dense.Cells != nil || !validRuns(&want.Cells))
	for _, path := range []struct {
		name    string
		err     error
		wantErr bool
	}{{"json.Unmarshal", gerr, werr != nil || refused}, {"UnmarshalJSON", derr, werr != nil || refused},
		{"ParseFiled", ferr, werr != nil || refused || want.Counters == nil}} {
		if (path.err != nil) != path.wantErr {
			t.Fatalf("doc %.80q: %s err %v, encoding/json %v (refused %t)", doc, path.name, path.err, werr, refused)
		}
		// The reference type's name appears in type errors; the wire type's
		// must appear in ours.
		if werr != nil && path.err.Error() != strings.ReplaceAll(werr.Error(), "plainResultView", "ResultView") {
			t.Fatalf("doc %.80q: %s error %q, encoding/json %q", doc, path.name, path.err, werr)
		}
	}
	if werr != nil || refused {
		return
	}
	what := fmt.Sprintf("doc %.80q: ", doc)
	wantView := ResultView(want)
	checkSameCells(t, what+"json.Unmarshal", got.Cells.Vals, want.Cells.Vals)
	checkSameCells(t, what+"UnmarshalJSON", direct.Cells.Vals, want.Cells.Vals)
	if !reflect.DeepEqual(got, wantView) || !reflect.DeepEqual(direct, wantView) {
		t.Fatalf("doc %.80q: fields differ:\n got  %+v\n direct %+v\n want %+v", doc, got, direct, wantView)
	}
	if ferr == nil {
		// ParseFiled keeps what a core.Result carries of the view.
		checkSameCells(t, what+"ParseFiled", filed.Result().Cells.Vals, want.Cells.Vals)
		if fres, wres := *filed.Result(), *wantView.result(core.Config{}); !reflect.DeepEqual(fres, wres) {
			t.Fatalf("doc %.80q: ParseFiled result differs:\n got  %+v\n want %+v", doc, fres, wres)
		}
	}
}

// TestResultViewDecodeMatchesStdlib pins ResultView.UnmarshalJSON and
// ParseFiled to encoding/json: a dense cells member in any shape is refused
// or fails with encoding/json's error, and a runs member reads as
// encoding/json reads it exactly when its runs are well formed.
func TestResultViewDecodeMatchesStdlib(t *testing.T) {
	for _, doc := range []string{
		// Dense cells, in every spelling JSON allows.
		`{"tally_total":1.5,"cells":[0,1,2.5],"events":7}`,
		`{"cells":[0]}`,
		`{"cells":[-0]}`,
		`{"cells":[-0.0,0.0,0e0,-0E-0]}`,
		`{"cells":[-1,-2.5e-3,1E+2,1e2,1.25E-7]}`,
		`{"cells":[5e-324,4.9406564584124654e-324,2.2250738585072014e-308,1e-320,-3e-310]}`,
		`{"cells":[1.7976931348623157e308,-1.7976931348623157e308]}`,
		`{"cells":[0.1,0.2,0.30000000000000004,123456789012345678901234567890]}`,
		`{"cells" : [ 1 ,	2
		, 3 ] , "deaths" : 4}`,
		`  {"events":3,"counters":{"FacetEvents":2},"cells":[1,2],"leakage":{"weight":{"x-hi":1},"energy":{"x-hi":2},"total_energy":2}}  `,
		`{"phase_timings":{"fused":0.25},"cells":[3],"ensemble":{"replicas":2,"rel_err":[0.5,"x"]}}`,
		// A nested member called cells is not the field.
		`{"leakage":{"weight":{"cells":1},"energy":{},"total_energy":0,"cells":[9]},"cells":[1]}`,
		`{"counters":{"cells":[1,2]}}`,
		`{"unknown":{"cells":[1,[2],{"cells":[3]}]},"s":"a \\"cells\\":[4] ]} \\\\","cells":[5]}`,
		// Cells that are not a non-empty number array, and no cells.
		`{"cells":null}`,
		`{"cells":[]}`,
		`{"cells":[ ]}`,
		`{"tally_total":2}`,
		`{}`,
		`{"cells":[1,null,2]}`,
		`{"cells":[1,"2"]}`,
		`{"cells":[[1]]}`,
		`{"cells":[1,[2],3]}`,
		`{"cells":[true]}`,
		`{"cells":{"0":1}}`,
		`{"cells":"[1,2]"}`,
		`{"cells":7}`,
		// Names encoding/json folds onto the field, duplicates, escapes.
		`{"CELLS":[1,2]}`,
		`{"Cells":[1],"cells":[2]}`,
		`{"cells":[1],"cells":[2,3]}`,
		`{"cells":[1],"cells":null}`,
		`{"cells":[4]}`,
		`{"cells":[1],"cells":[4]}`,
		`{"cellſ":[6]}`,
		`{"cells":[1],"cellſ":[6]}`,
		`{"Kells":[1]}`,
		// Numbers outside the JSON grammar or float64's range.
		`{"cells":[+1]}`,
		`{"cells":[01]}`,
		`{"cells":[.5]}`,
		`{"cells":[5.]}`,
		`{"cells":[1e]}`,
		`{"cells":[1e+]}`,
		`{"cells":[--1]}`,
		`{"cells":[-]}`,
		`{"cells":[1.2.3]}`,
		`{"cells":[1e5e5]}`,
		`{"cells":[0x10]}`,
		`{"cells":[1_000]}`,
		`{"cells":[NaN]}`,
		`{"cells":[Infinity]}`,
		`{"cells":[1e400]}`,
		`{"cells":[1,-1e999,2]}`,
		// Malformed documents.
		``,
		`null`,
		`[1,2]`,
		`"cells"`,
		`{"cells":[1,2]`,
		`{"cells":[1,2`,
		`{"cells":[1,,2]}`,
		`{"cells":[1,]}`,
		`{"cells":[,1]}`,
		`{"cells":[1 2]}`,
		`{"cells":[1]]}`,
		`{"cells":[1],}`,
		`{"cells":[1]} x`,
		`{"cells":[1]}{"cells":[2]}`,
		`{"cells" [1]}`,
		`{cells:[1]}`,
		`{"cells":[1],"events":}`,
		`{"cells":[1],"events":1e}`,
		`{"events":"unterminated,"cells":[1]}`,
		`{"events":"bad \x escape","cells":[1]}`,
		`{"cells":[1],"events":-1}`,
		`{"cells":[1],"events":"7"}`,
		`{"a":{"cells":[1]},"cells":[2}`,
	} {
		checkDecodeMatchesStdlib(t, doc)
	}
	for _, doc := range []string{
		// Well-formed runs, in every spelling JSON allows.
		`{"runs":{"n":0}}`,
		`{"tally_total":1.5,"runs":{"n":3,"start":[1],"end":[3],"vals":[1,2.5]},"events":7}`,
		`{"runs":{"n":4,"start":[0,3],"end":[2,4],"vals":[1,-0,2.5e-300]}}`,
		`{"runs":{"n":2,"start":[0],"end":[2],"vals":[5e-324,-1.7976931348623157e308]}}`,
		` {"runs" : { "vals" : [ 1 ] , "end":[1], "start":[0] , "n":1 } , "deaths":4} `,
		`{"RUNS":{"N":1,"Start":[0],"End":[1],"Vals":[2]}}`,
		`{"runs":{"n":1,"start":[0],"end":[1],"vals":[1]},"runs":{"n":2}}`,
		`{"cells":null,"runs":{"n":1,"start":[0],"end":[1],"vals":[1]}}`,
		`{"runs":{"n":1,"start":[0],"end":[1],"vals":[1],"extra":[1,2]},"counters":{"FacetEvents":2}}`,
		`{"leakage":{"weight":{"x-hi":1},"energy":{"x-hi":2},"total_energy":2},"runs":{"n":3,"start":null,"end":null}}`,
		`{"ensemble":{"replicas":2,"rel_err":[0,0.5]},"runs":{"n":2,"start":[1],"end":[2],"vals":[0.5]}}`,
		// Runs beside cells, or runs a result does not file.
		`{"cells":[1,2,3],"runs":{"n":3}}`,
		`{"runs":{"n":1,"start":[0],"end":[1],"vals":[1]},"cells":[]}`,
		`{"Cells":[0],"runs":{"n":0}}`,
		`{"runs":{"n":-1}}`,
		`{"runs":{"n":2147483648}}`,
		`{"runs":{"n":214743648}}`,
		`{"runs":{"n":67108865}}`,
		`{"runs":{"n":2,"start":[1],"end":[3],"vals":[1,2]}}`,
		`{"runs":{"n":2,"start":[0],"end":[1],"vals":[0]}}`,
		`{"runs":{"n":2,"start":[0],"end":[1],"vals":[1,2]}}`,
		`{"runs":{"n":2,"start":[0],"end":[1],"vals":[]}}`,
		`{"runs":{"n":4,"start":[0,2],"end":[2,4],"vals":[1,2,3,4]}}`,
		`{"runs":{"n":4,"start":[2,0],"end":[3,1],"vals":[1,2]}}`,
		`{"runs":{"n":4,"start":[1,1],"end":[2,2],"vals":[1,2]}}`,
		`{"runs":{"n":4,"start":[1],"end":[1],"vals":[]}}`,
		`{"runs":{"n":4,"start":[-1],"end":[1],"vals":[1,2]}}`,
		`{"runs":{"n":4,"start":[0],"end":[1,2],"vals":[1]}}`,
		// Runs of the wrong shape: encoding/json's business.
		`{"runs":{"n":"1"}}`,
		`{"runs":{"n":1.5}}`,
		`{"runs":{"n":1,"start":[2147483648],"end":[1]}}`,
		`{"runs":{"n":1,"start":[0],"end":[1],"vals":["1"]}}`,
		`{"runs":{"n":1,"start":[0],"end":[1],"vals":[NaN]}}`,
		`{"runs":[1,2]}`,
		`{"runs":7}`,
		`{"runs":{"n":1,"start":[0],"end":[1],"vals":[1]}`,
		`{"runs":{"n":1,"start":[0],"end":[1],"vals":[1]}} x`,
		// The one pass's form with parts encoding/json reads otherwise: no
		// member before the runs, a missing ']' or '}', numbers strconv alone
		// would take, a folded runs member earlier, a member after, a GET
		// /result body's newline.
		`{,"runs":{"vals":[}`,
		`{,"runs":{"n":0}}`,
		`{"events":1,"runs":{"vals":[}`,
		`{"events":1,"runs":{"n":1}`,
		`{"events":1,"runs":{"n":2,"start":[0],"end":[1],"vals":[NaN]}}`,
		`{"events":1,"runs":{"n":2,"start":[0],"end":[1],"vals":[Inf]}}`,
		`{"events":1,"runs":{"n":2,"start":[0],"end":[1],"vals":[+1]}}`,
		`{"events":1,"runs":{"n":2,"start":[0],"end":[1],"vals":[01]}}`,
		`{"events":1,"runs":{"n":2,"start":[0],"end":[1],"vals":[.5]}}`,
		`{"events":1,"runs":{"n":2,"start":[0],"end":[1],"vals":[1.]}}`,
		`{"events":1,"runs":{"n":2,"start":[0],"end":[1],"vals":[0x1p-2]}}`,
		`{"events":1,"runs":{"n":2,"start":[0],"end":[1],"vals":[1_000]}}`,
		`{"events":1,"runs":{"n":2,"start":[0],"end":[1],"vals":[1.e5]}}`,
		`{"events":1,"runs":{"n":2,"start":[+0],"end":[01],"vals":[1]}}`,
		`{"events":1,"runs":{"n":+2,"start":[0],"end":[1],"vals":[1]}}`,
		`{"events":1,"runs":{"n":02,"start":[0],"end":[1],"vals":[1]}}`,
		`{"events":1,"runs":{"n":2,"start":[0],"end":[1],"vals":[1,]}}`,
		`{"events":1,"runs":{"n":2,"start":[0],"end":[1],"vals":[1e-0,-0.0E+1]}}`,
		`{"Runs":{"n":3},"events":1,"runs":{"start":[0],"end":[1],"vals":[1]}}`,
		`{"events":1,"runs":{"n":2,"start":[0],"end":[1],"vals":[1]},"deaths":3}`,
		"{\"events\":1,\"runs\":{\"n\":2,\"start\":[0],\"end\":[1],\"vals\":[1]}}\n",
	} {
		checkDecodeMatchesStdlib(t, doc)
	}

	// Generated arrays: every float formatting Go has, random bit patterns
	// (subnormals and extremes included), random whitespace.
	rnd := rand.New(rand.NewSource(13))
	special := []float64{0, math.Copysign(0, -1), 1, -1, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 2.2250738585072014e-308,
		2.225073858507201e-308, 1e22, 1e23, 9007199254740993, 0.1, 1e-7, 2e9}
	spaces := []string{"", "", "", " ", "\n", "\t ", "\r\n"}
	for trial := 0; trial < 300; trial++ {
		var sb strings.Builder
		sb.WriteString(`{"tally_total":`)
		sb.WriteString(strconv.FormatFloat(rnd.NormFloat64(), 'g', -1, 64))
		sb.WriteString(`,"cells":` + spaces[rnd.Intn(len(spaces))] + `[`)
		n := 1 + rnd.Intn(40)
		for i := 0; i < n; i++ {
			var f float64
			switch rnd.Intn(4) {
			case 0:
				f = special[rnd.Intn(len(special))]
			case 1:
				f = math.Float64frombits(rnd.Uint64())
				if math.IsNaN(f) || math.IsInf(f, 0) {
					f = 0
				}
			case 2:
				f = math.Float64frombits(rnd.Uint64() & (1<<52 - 1)) // subnormal
			default:
				f = rnd.ExpFloat64() * 1e9
			}
			if i > 0 {
				sb.WriteString(spaces[rnd.Intn(len(spaces))] + "," + spaces[rnd.Intn(len(spaces))])
			}
			format := []byte{'g', 'e', 'E', 'G'}[rnd.Intn(4)]
			prec := -1
			if rnd.Intn(3) == 0 {
				prec = rnd.Intn(20)
			}
			sb.WriteString(strconv.FormatFloat(f, format, prec, 64))
		}
		sb.WriteString(spaces[rnd.Intn(len(spaces))] + `],"events":` + strconv.Itoa(rnd.Intn(1000)) + `}`)
		doc := sb.String()
		checkDecodeMatchesStdlib(t, doc)
		// And with one byte damaged or the tail cut: still the same verdict.
		damaged := []byte(doc)
		damaged[rnd.Intn(len(damaged))] = `]}[{,:"e+-.x0 `[rnd.Intn(14)]
		checkDecodeMatchesStdlib(t, string(damaged))
		checkDecodeMatchesStdlib(t, doc[:rnd.Intn(len(doc))])
	}

	// Generated runs: filed from random cells, then damaged or cut.
	for trial := 0; trial < 300; trial++ {
		cells := make([]float64, rnd.Intn(40))
		for i := range cells {
			if rnd.Intn(3) == 0 {
				cells[i] = special[rnd.Intn(len(special))]
			}
		}
		data, err := fileResult(&core.Result{TallyTotal: rnd.NormFloat64(), Cells: tally.Compact(cells)}).encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		doc := string(data)
		checkDecodeMatchesStdlib(t, doc)
		damaged := []byte(doc)
		damaged[rnd.Intn(len(damaged))] = `]}[{,:"e+-.x0 1`[rnd.Intn(15)]
		checkDecodeMatchesStdlib(t, string(damaged))
		checkDecodeMatchesStdlib(t, doc[:rnd.Intn(len(doc))])
	}

	// The real thing: the reference result as runs round-trips, and as the
	// dense cells an older engine wrote is refused.
	res := referenceResult(t)
	stored, err := fileResult(res).encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	dense := denseDoc(t, res)
	for _, data := range [][]byte{dense, stored} {
		checkDecodeMatchesStdlib(t, string(data))
	}
	var rv ResultView
	if err := json.Unmarshal(stored, &rv); err != nil || !reflect.DeepEqual(rv.Cells, res.Cells) {
		t.Fatalf("cells changed across encode/decode (err %v)", err)
	}
	if err := json.Unmarshal(dense, &rv); !errors.Is(err, errDenseCells) {
		t.Fatalf("dense cells decoded (err %v)", err)
	}
	if _, err := ParseFiled(dense, res.Config); !errors.Is(err, errDenseCells) {
		t.Fatalf("dense cells filed (err %v)", err)
	}
}

// TestDecodeFiledOnePass: every shape of result encode writes, a GET /result
// body's newline included, is read in the one pass, to what encoding/json
// reads of the whole document, the runs' values bit for bit.
func TestDecodeFiledOnePass(t *testing.T) {
	var leaky Spec
	if err := json.Unmarshal([]byte(sceneSpec("leaky", "air")), &leaky); err != nil {
		t.Fatal(err)
	}
	leaky.KeepCells = true
	cfg, err := leaky.Config()
	if err != nil {
		t.Fatal(err)
	}
	vacuum, err := core.Run(cfg)
	if err != nil || vacuum.Counter.Escapes == 0 {
		t.Fatalf("leaky scene: %d escapes, err %v", vacuum.Counter.Escapes, err)
	}
	reference := referenceResult(t)
	ens := &EnsembleView{Replicas: 2, MeanTotal: 1.5, ReplicaTotals: []float64{1, 2}, RelErr: []float64{0, 0.25, 1e-300}}
	for _, tc := range []struct {
		name string
		res  *core.Result
		ens  *EnsembleView
	}{
		{"csp with cells", reference, nil},
		{"no deposit", &core.Result{TallyTotal: 0, Cells: tally.Runs{N: 64 * 64}}, nil},
		{"vacuum edge", vacuum, nil},
		{"no kept cells", &core.Result{TallyTotal: 3, Wall: 5}, nil},
		{"ensemble", reference, ens},
	} {
		body, err := fileResult(tc.res).body(tc.ens)
		if err != nil {
			t.Fatal(err)
		}
		for _, data := range [][]byte{body[:len(body)-1], body} {
			got, ok := decodeFiled(data)
			var want plainResultView
			if err := json.Unmarshal(data, &want); err != nil || !ok {
				t.Fatalf("%s: one pass %t, encoding/json %v", tc.name, ok, err)
			}
			checkSameCells(t, tc.name+": run values", got.Cells.Vals, want.Cells.Vals)
			if !reflect.DeepEqual(got, ResultView(want)) {
				t.Fatalf("%s: members differ:\n got  %+v\n want %+v", tc.name, got, want)
			}
		}
	}
}

// TestClientReadsWhatTheSolveKept: a Go client decoding GET /result, and a
// coordinator filing its body, read exactly the cells the bare solve kept, by
// the benchmark's own comparison (reflect.DeepEqual): the same type, nil
// slices where nothing was deposited and exact ones where something was.
func TestClientReadsWhatTheSolveKept(t *testing.T) {
	spec := func(doc string) core.Config {
		t.Helper()
		var s Spec
		if err := json.Unmarshal([]byte(doc), &s); err != nil {
			t.Fatal(err)
		}
		s.KeepCells = true
		cfg, err := s.Config()
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	csp := spec(`{"problem":"csp","nx":64,"particles":200,"seed":7}`)
	morton, soa, ensemble := csp, csp, csp
	morton.Ordering = mesh.Morton
	soa.Layout = particle.SoA
	ensemble.Replicas = 3
	for _, tc := range []struct {
		name    string
		cfg     core.Config
		deposit bool
	}{
		{"csp", csp, true},
		{"no deposit", spec(strings.Replace(sceneSpec("void", "void"), "1e-10", "0", 1)), false},
		{"vacuum edge", spec(strings.Replace(sceneSpec("leaky", "water"), "1e-10", "1", 1)), true},
		{"morton", morton, true},
		{"soa", soa, true},
		{"ensemble", ensemble, true},
	} {
		var want tally.Runs
		if tc.cfg.Replicas > 1 {
			ens, err := stats.RunEnsemble(context.Background(), tc.cfg, stats.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want = tally.Compact(ens.Mean)
		} else {
			res, err := core.Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want = res.Cells
		}
		if want.N != tc.cfg.NX*tc.cfg.NY || (want.Vals != nil) != tc.deposit {
			t.Fatalf("%s: the bare solve kept %d cells, %d values", tc.name, want.N, len(want.Vals))
		}

		ts, e := newTestServer(t, Options{Shards: 1})
		j, err := e.Submit(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID() + "/result?wait=true")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: result status %d, err %v", tc.name, resp.StatusCode, err)
		}
		var rv ResultView
		if err := json.Unmarshal(body, &rv); err != nil || !reflect.DeepEqual(rv.Cells, want) {
			t.Fatalf("%s: the client read %+v, the solve kept %+v (err %v)", tc.name, rv.Cells, want, err)
		}
		filed, err := ParseFiled(body, tc.cfg)
		if err != nil || !reflect.DeepEqual(filed.Result().Cells, want) {
			t.Fatalf("%s: filed %+v, the solve kept %+v (err %v)", tc.name, filed.Result().Cells, want, err)
		}
	}
}

// TestResultContentLength: GET /result declares its length, on the job that
// computed the result and on a job born from a hit on it, so a reader takes
// the body in one buffer of that size.
func TestResultContentLength(t *testing.T) {
	ts, _ := newTestServer(t, Options{Shards: 1, QueueDepth: 4})
	spec := `{"problem":"csp","nx":64,"particles":200,"seed":7,"keep_cells":true}`
	check := func(id string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result?wait=true")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("result: status %d, err %v", resp.StatusCode, err)
		}
		if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
			t.Fatalf("job %s: Content-Length %q for a %d-byte body", id, got, len(body))
		}
		var doc struct {
			Cells json.RawMessage `json:"cells"`
			Runs  *struct{ N int }
		}
		if err := json.Unmarshal(body, &doc); err != nil || doc.Cells != nil || doc.Runs == nil || doc.Runs.N != 64*64 {
			t.Fatalf("job %s: body %.120q is not a 64×64 result's runs (err %v)", id, body, err)
		}
	}
	check(submitJob(t, ts, spec, false).ID)
	hit, code := postJob(t, ts, spec)
	if code != http.StatusOK || !hit.Cached {
		t.Fatalf("repeat submit: status %d, view %+v", code, hit)
	}
	check(hit.ID)
}

// FuzzResultDecode is checkDecodeMatchesStdlib over arbitrary documents. Its
// seeds are the two document lists of TestResultViewDecodeMatchesStdlib —
// read from this file's source, so each list has one copy — each followed by
// a result in that list's form: a 64² run's dense cells, then the reference
// result's runs. The dense reference would be 137 KB, and the fuzzer stops
// executing while it minimizes each new input mutated from one that large.
func FuzzResultDecode(f *testing.F) {
	file, err := parser.ParseFile(token.NewFileSet(), "result_json_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	var lists [][]string
	for _, decl := range file.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "TestResultViewDecodeMatchesStdlib" {
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				// The first two []string literals in the test are its lists.
				list, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				if typ, ok := list.Type.(*ast.ArrayType); !ok || typ.Len != nil || fmt.Sprint(typ.Elt) != "string" {
					return true
				}
				var docs []string
				for _, elt := range list.Elts {
					doc, err := strconv.Unquote(elt.(*ast.BasicLit).Value)
					if err != nil {
						f.Fatal(err)
					}
					docs = append(docs, doc)
				}
				lists = append(lists, docs)
				return false
			})
		}
	}
	if len(lists) < 2 || len(lists[0]) < 50 || len(lists[1]) < 20 {
		f.Fatalf("found %d document lists in TestResultViewDecodeMatchesStdlib", len(lists))
	}
	cfg := core.Default(mesh.CSP)
	cfg.NX, cfg.NY, cfg.Particles, cfg.KeepCells = 64, 64, 200, true
	small, err := core.Run(cfg)
	if err != nil {
		f.Fatal(err)
	}
	stored, err := fileResult(referenceResult(f)).encode(nil)
	if err != nil {
		f.Fatal(err)
	}
	for i, ref := range [][]byte{denseDoc(f, small), stored} {
		for _, doc := range lists[i] {
			f.Add(doc)
		}
		f.Add(string(ref))
	}
	f.Fuzz(checkDecodeMatchesStdlib)
}

// The allocation ceiling of a result decode: a number or map entry of a few
// bytes becomes a slice element or map slot of 8 to 80, and encoding/json's
// scanner, the type cache and the runtime's own background work take the
// fixed part.
const (
	decodeAllocPerByte = 128
	decodeAllocFixed   = 256 << 10
)

// allocated returns the heap bytes allocated while f runs, read from the
// runtime's cumulative count; other goroutines' allocations count too.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeAllocatesByInput: a 23-byte document declaring the most cells a
// mesh holds decodes to its runs in under a kilobyte; a dense mesh of that n
// would be 512 MB. The least of a few tries discounts other goroutines.
func TestDecodeAllocatesByInput(t *testing.T) {
	doc := []byte(`{"runs":{"n":67108864}}`)
	var rv ResultView
	if err := json.Unmarshal(doc, &rv); err != nil || rv.Cells.N != mesh.MaxCells {
		t.Fatalf("decoded %+v, err %v", rv.Cells, err)
	}
	least := uint64(math.MaxUint64)
	for range 5 {
		least = min(least, allocated(func() { json.Unmarshal(doc, new(ResultView)) }))
	}
	if t.Logf("decoding %q allocates %d bytes", doc, least); least >= 1<<10 {
		t.Fatalf("decoding %q allocates %d bytes, want under 1 KB", doc, least)
	}
}

// TestResultEncodedOnce: a single-run result has one JSON form. GET /result
// on the job that computed it, on a job born from an LRU hit and on one born
// from a blob-tier hit serves exactly the blob tier's bytes plus a newline —
// under a tenth of the dense cells' JSON — and it decodes to the view.
func TestResultEncodedOnce(t *testing.T) {
	store := blob.NewMem()
	ts, e := newTestServer(t, Options{Shards: 1, QueueDepth: 4, Blobs: store})
	spec := `{"problem":"csp","nx":256,"particles":200,"seed":7,"keep_cells":true}`
	get := func(ts *httptest.Server, id string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result?wait=true")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("result: status %d, err %v", resp.StatusCode, err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type %q", ct)
		}
		return body
	}

	first := submitJob(t, ts, spec, false)
	body := get(ts, first.ID)
	j, err := e.Job(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := store.Get("results/" + j.key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, append(stored, '\n')) {
		t.Fatal("GET /result on the computing job is not the blob tier's bytes")
	}
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	dense := denseDoc(t, res)
	t.Logf("served %d bytes for %d of dense JSON", len(body), len(dense))
	if len(body)*10 > len(dense) {
		t.Errorf("served %d bytes, more than a tenth of the %d dense", len(body), len(dense))
	}
	var served ResultView
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(served, resultViewOf(res)) {
		t.Fatal("the served result does not decode to the view")
	}

	hit, code := postJob(t, ts, spec)
	if code != http.StatusOK || !hit.Cached {
		t.Fatalf("repeat submit: status %d, view %+v", code, hit)
	}
	if !bytes.Equal(get(ts, hit.ID), body) {
		t.Fatal("LRU-hit job served different bytes")
	}

	// A blob-tier hit on an engine over the same store serves those bytes.
	ts2, e2 := newTestServer(t, Options{Shards: 1, QueueDepth: 4, Blobs: store})
	blobHit := submitJob(t, ts2, spec, true)
	if got := get(ts2, blobHit.ID); e2.store.blobHits.Value() != 1 || !bytes.Equal(got, body) {
		t.Fatalf("blob-tier hit (%v hits) served bytes unlike its stored result's", e2.store.blobHits.Value())
	}
}

// FuzzRunsDecode pins parseRuns to encoding/json's own reading of the runs
// object, which the document tests above cannot see apart from the members
// around it. Any valid JSON value, read over zero runs and over runs already
// set (as a repeated "runs" member is read), is either declined or leaves the
// fields encoding/json leaves, nil and empty told apart.
func FuzzRunsDecode(f *testing.F) {
	for _, doc := range []string{
		`{"n":0}`, `{}`, `{"n":3,"start":[1],"end":[3],"vals":[1,2.5]}`,
		` { "vals" : [ 1 , -0, 5e-324 ] , "end":[1], "start":[0] , "n":1 } `,
		`{"n":4,"start":[],"end":[ ],"vals":[-1.7976931348623157e308]}`,
		`{"N":1}`, `{"n":1,"n":2}`, `{"n":1,"extra":[1]}`, `{"n":null}`, `{"start":null}`,
		`{"n":"1"}`, `{"n":1.5}`, `{"n":-0}`, `{"start":[2147483648]}`, `{"start":[-2147483648]}`,
		`{"end":[1e0]}`, `{"end":[1.0]}`, `{"vals":[1e400]}`, `{"vals":["1"]}`, `{"vals":[1,[2]]}`,
		`{"vals":[true]}`, `{"start":[1]}`, `{"start":[01]}`, `[1,2]`, `7`, `"x"`, `null`,
	} {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		if !json.Valid([]byte(doc)) {
			return // decodeFiled's whole document is JSON whenever its parts read
		}
		for _, start := range []tally.Runs{{}, {N: 9, Start: []int32{1}, End: []int32{2}, Vals: []float64{3}}} {
			want := start
			want.Start, want.End, want.Vals = slices.Clone(start.Start), slices.Clone(start.End), slices.Clone(start.Vals)
			got, ok := parseRuns([]byte(doc), start)
			if werr := json.Unmarshal([]byte(doc), &want); ok && (werr != nil || !reflect.DeepEqual(got, want)) {
				t.Fatalf("%q over %+v: %+v, encoding/json %+v (err %v)", doc, start, got, want, werr)
			}
		}
	})
}
