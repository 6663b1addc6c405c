package service

import (
	"bytes"
	"encoding/json"
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
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/service/blob"
)

// referenceResult is the service's reference job — csp, 256², 2 000
// particles, keep_cells — solved once: the 137 KB result every benchmark
// workload of the serving tier moves around.
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

// BenchmarkResultJSON times the two fixed costs a result pays on the wire:
// encoding the view (once per result: the bytes are kept with the cache
// entry) and decoding it (every remote result on a coordinator, every
// blob-tier hit).
func BenchmarkResultJSON(b *testing.B) {
	res := referenceResult(b)
	data, err := json.Marshal(resultViewOf(res))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := encodeResultView(resultViewOf(res)); err != nil {
				b.Fatal(err)
			}
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
	// What a coordinator pays for every remote result and an engine for
	// every blob-tier hit: the wire form filed without dense cells.
	b.Run("decode-filed", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := ParseFiled(data, res.Config); err != nil {
				b.Fatal(err)
			}
		}
	})
	// What store.put pays once per fresh result, and what every later
	// encoding of the stored form costs.
	b.Run("file", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if fileResult(res).cells.N == 0 {
				b.Fatal("no cells filed")
			}
		}
	})
	b.Run("encode-filed", func(b *testing.B) {
		f := fileResult(res)
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := f.encode(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestResultEncodeMatchesStdlib pins encodeResultView to json.Marshal: the
// same bytes for any cells JSON can carry — positive zero (the fast path) and
// negative zero (which must not take it), both sides of each exponent-form
// cutoff, subnormals, the extremes and a million random bit patterns — with
// and without the optional blocks after the array, and the same error for the
// cells it cannot.
func TestResultEncodeMatchesStdlib(t *testing.T) {
	check := func(name string, v ResultView) {
		t.Helper()
		got, gerr := encodeResultView(v)
		want, werr := json.Marshal(v)
		if (gerr == nil) != (werr == nil) || (werr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("%s: err %v, encoding/json %v", name, gerr, werr)
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s: differs at byte %d: %.40q, encoding/json %.40q", name, i, got[max(i-10, 0):], want[max(i-10, 0):])
		}
	}

	negZero := math.Copysign(0, -1)
	edges := []float64{0, negZero, 1, -1, 0.1, 1e-7, 1e-6, math.Nextafter(1e-6, 0), 9.5e-10, 1e-10, 1e-100,
		1e20, 1e21, math.Nextafter(1e21, 0), 1e22, 1e100, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x0.8p-1022, 1 << 53, 1<<53 + 2, 123456.789}
	for _, f := range edges {
		check(strconv.FormatFloat(f, 'g', -1, 64), ResultView{Cells: []float64{f}})
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
	check("random", ResultView{TallyTotal: 1.5, Events: 7, Cells: cells})

	full := resultViewOf(referenceResult(t))
	check("reference", full)
	full.Escapes = 3
	full.Leakage = &LeakageView{Weight: map[string]float64{"x-lo": 1e-9}, Energy: map[string]float64{"x-lo": 2.5}, TotalEnergy: 2.5}
	full.Ensemble = &EnsembleView{Replicas: 2, MeanTotal: 1e21, ReplicaTotals: []float64{0, 1}, RelErr: []float64{0, 0.5}}
	full.PhaseTimings = map[string]float64{"fused": 0.25, "merge": 1e-7}
	check("every block set", full)
	full.Cells = full.Cells[:1]
	check("one cell", full)
	full.Cells = []float64{}
	check("empty cells", full)
	full.Cells = nil
	check("nil cells", full)

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		check("unsupported cell", ResultView{Cells: []float64{0, bad, 1}})
		check("unsupported field", ResultView{TallyTotal: bad, Cells: []float64{0, 1}})
	}
}

// plainResultView is ResultView without its UnmarshalJSON: what
// encoding/json alone makes of a document.
type plainResultView ResultView

// checkDecodeMatchesStdlib decodes doc three ways — json.Unmarshal into a
// ResultView, a direct UnmarshalJSON call (which skips encoding/json's
// pre-scan of the document) and ParseFiled — and requires each to reach
// encoding/json's own outcome: all fail with its error or all succeed, every
// cell the same bits (nil and empty told apart), every other field equal.
func checkDecodeMatchesStdlib(t *testing.T, doc string) {
	t.Helper()
	var got, direct ResultView
	var want plainResultView
	gerr := json.Unmarshal([]byte(doc), &got)
	derr := direct.UnmarshalJSON([]byte(doc))
	filed, ferr := ParseFiled([]byte(doc), core.Config{})
	werr := json.Unmarshal([]byte(doc), &want)
	for _, path := range []struct {
		name string
		err  error
	}{{"json.Unmarshal", gerr}, {"UnmarshalJSON", derr}, {"ParseFiled", ferr}} {
		if (path.err == nil) != (werr == nil) {
			t.Fatalf("doc %.80q: %s err %v, encoding/json %v", doc, path.name, path.err, werr)
		}
		// The reference type's name appears in type errors; the wire type's
		// must appear in ours.
		if werr != nil && path.err.Error() != strings.ReplaceAll(werr.Error(), "plainResultView", "ResultView") {
			t.Fatalf("doc %.80q: %s error %q, encoding/json %q", doc, path.name, path.err, werr)
		}
	}
	if werr != nil {
		return
	}
	for _, path := range []struct {
		name  string
		cells []float64
	}{{"json.Unmarshal", got.Cells}, {"UnmarshalJSON", direct.Cells}, {"ParseFiled", filed.Result().Cells}} {
		if (path.cells == nil) != (want.Cells == nil) || len(path.cells) != len(want.Cells) {
			t.Fatalf("doc %.80q: %s cells %v, encoding/json %v", doc, path.name, path.cells, want.Cells)
		}
		for i := range want.Cells {
			if math.Float64bits(path.cells[i]) != math.Float64bits(want.Cells[i]) {
				t.Fatalf("doc %.80q: %s cell %d = %x, encoding/json %x", doc, path.name, i,
					math.Float64bits(path.cells[i]), math.Float64bits(want.Cells[i]))
			}
		}
	}
	// ParseFiled keeps what a core.Result carries of the view.
	wantView := ResultView(want)
	fres, wres := *filed.Result(), *wantView.result(core.Config{})
	fres.Cells, wres.Cells = nil, nil
	if !reflect.DeepEqual(fres, wres) {
		t.Fatalf("doc %.80q: ParseFiled result differs:\n got  %+v\n want %+v", doc, fres, wres)
	}
	got.Cells, direct.Cells, want.Cells = nil, nil, nil
	if !reflect.DeepEqual(got, ResultView(want)) || !reflect.DeepEqual(direct, ResultView(want)) {
		t.Fatalf("doc %.80q: fields differ:\n got  %+v\n direct %+v\n want %+v", doc, got, direct, ResultView(want))
	}
}

// TestResultViewDecodeMatchesStdlib pins ResultView.UnmarshalJSON to
// encoding/json: on every shape of cells member it recognises it must
// produce the same bits, and on everything else the same value or error.
func TestResultViewDecodeMatchesStdlib(t *testing.T) {
	for _, doc := range []string{
		// Recognised: plain number arrays in every spelling JSON allows.
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
		// Not a non-empty number array: encoding/json's business.
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

	// The real thing round-trips: the reference result through the wire.
	res := referenceResult(t)
	data, err := json.Marshal(resultViewOf(res))
	if err != nil {
		t.Fatal(err)
	}
	checkDecodeMatchesStdlib(t, string(data))
	var rv ResultView
	if err := json.Unmarshal(data, &rv); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rv.Cells, res.Cells) {
		t.Fatal("cells changed across encode/decode")
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
		if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) || len(body) < 64*64 {
			t.Fatalf("job %s: Content-Length %q for a %d-byte body", id, got, len(body))
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
// seeds are the document list of TestResultViewDecodeMatchesStdlib — read from
// this file's source, so the list has one copy — and the reference result's
// wire form.
func FuzzResultDecode(f *testing.F) {
	file, err := parser.ParseFile(token.NewFileSet(), "result_json_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	seeds := 0
	for _, decl := range file.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "TestResultViewDecodeMatchesStdlib" {
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				// The first []string literal in the test is its list.
				list, ok := n.(*ast.CompositeLit)
				if !ok || seeds > 0 {
					return seeds == 0
				}
				if typ, ok := list.Type.(*ast.ArrayType); !ok || typ.Len != nil || fmt.Sprint(typ.Elt) != "string" {
					return true
				}
				for _, elt := range list.Elts {
					doc, err := strconv.Unquote(elt.(*ast.BasicLit).Value)
					if err != nil {
						f.Fatal(err)
					}
					f.Add(doc)
					seeds++
				}
				return false
			})
		}
	}
	if seeds < 50 {
		f.Fatalf("found %d documents in TestResultViewDecodeMatchesStdlib's list", seeds)
	}
	data, err := json.Marshal(resultViewOf(referenceResult(f)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(data))
	f.Fuzz(checkDecodeMatchesStdlib)
}

// TestResultEncodedOnce: GET /result on the job that computed a single-run
// result and on jobs born from an LRU hit emit the bytes of an encoding kept
// with the cache entry, and those bytes are exactly what encoding the view per
// request produced. The computing job's fetch releases the entry's copy; hit
// jobs' fetches keep it. The blob tier stores the view but its cells, and the
// cells as runs: under a tenth of the served bytes, it reads back to the
// served view and to the result a parse of the served bytes files, which is
// what a blob-tier hit then serves.
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
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(resultViewOf(res)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatal("GET /result is not the per-request encoding of the view")
	}

	stored, err := store.Get("results/" + j.key)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stored %d bytes for %d served", len(stored), len(body))
	if len(stored)*10 >= len(body) {
		t.Errorf("stored result is %d bytes, not under a tenth of the %d served", len(stored), len(body))
	}
	f, ok := parseStored(stored, j.cfg)
	if !ok {
		t.Fatal("the stored result does not read back")
	}
	var served, kept ResultView
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(stored, &kept); err != nil {
		t.Fatal(err)
	}
	if kept.Cells = f.cells.expand(nil); !reflect.DeepEqual(kept, served) {
		t.Fatal("the stored view and runs are not the served view")
	}
	parsed, err := ParseFiled(body, j.cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromBlob, err := f.encode()
	if fromWire, werr := parsed.encode(); err != nil || werr != nil || !bytes.Equal(fromBlob, fromWire) {
		t.Fatalf("the stored result encodes unlike the served bytes parsed (err %v, %v)", err, werr)
	}

	// The computing job's own fetch let the entry's copy go.
	if el := e.store.items[j.key]; el == nil || el.Value.(*cacheEntry).wire != nil {
		t.Fatal("computing job's fetch should release the entry's encoded bytes")
	}

	hit, code := postJob(t, ts, spec)
	if code != http.StatusOK || !hit.Cached {
		t.Fatalf("repeat submit: status %d, view %+v", code, hit)
	}
	if !bytes.Equal(get(ts, hit.ID), body) {
		t.Fatal("LRU-hit job served different bytes")
	}
	// A hit job's fetch keeps them: the next hit is served the same slice.
	a, _ := e.store.resultJSON(j.key, j.result, false)
	b, _ := e.store.resultJSON(j.key, j.result, false)
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("cache entry re-encoded its result")
	}
	if !bytes.Equal(get(ts, hit.ID), body) {
		t.Fatal("second fetch of the hit job served different bytes")
	}
	// A result the cache does not hold still encodes, for that caller.
	other := fileResult(res)
	if c, err := e.store.resultJSON(j.key, other, false); err != nil || !bytes.Equal(c, a) || &c[0] == &a[0] {
		t.Fatal("foreign result must be encoded afresh to the same bytes")
	}

	// A blob-tier hit on an engine over the same store serves those bytes.
	ts2, e2 := newTestServer(t, Options{Shards: 1, QueueDepth: 4, Blobs: store})
	blobHit := submitJob(t, ts2, spec, true)
	if got := get(ts2, blobHit.ID); e2.store.blobHits.Value() != 1 || !bytes.Equal(got, append(fromBlob, '\n')) {
		t.Fatalf("blob-tier hit (%v hits) served bytes unlike its stored result's", e2.store.blobHits.Value())
	}
}
