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
// encoding it (every GET /result and every blob-tier put), decoding it into a
// Go client's dense view, filing it (every remote result on a coordinator,
// every blob-tier hit), and filing a fresh result's cells as runs.
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
			if _, err := f.encode(nil); err != nil {
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
			if fileResult(res).cells.N == 0 {
				b.Fatal("no cells filed")
			}
		}
	})
}

// checkEncodeRoundTrip writes v in the one JSON form — the view but its cells,
// and the cells as their runs — and requires the document to read back through
// UnmarshalJSON and ParseFiled to every cell's bits (no cells reading as nil)
// and every other field; a view JSON cannot carry (NaN, ±Inf) must fail with
// json.Marshal's own error.
func checkEncodeRoundTrip(t *testing.T, name string, v ResultView) {
	t.Helper()
	runs, bare := compactCells(v.Cells), v
	bare.Cells = nil
	data, err := json.Marshal(storedResult{plainView(bare), &runs})
	if _, werr := json.Marshal(v); (err == nil) != (werr == nil) || (werr != nil && err.Error() != werr.Error()) {
		t.Fatalf("%s: err %v, encoding/json %v", name, err, werr)
	}
	if err != nil {
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
	want := v.Cells
	if len(want) == 0 {
		want = nil
	}
	checkSameCells(t, name+": UnmarshalJSON", back.Cells, want)
	checkSameCells(t, name+": ParseFiled", filed.Result().Cells, want)
	if back.Cells = nil; !reflect.DeepEqual(back, bare) {
		t.Fatalf("%s: fields differ through UnmarshalJSON:\n got  %+v\n want %+v", name, back, bare)
	}
	fres, wres := *filed.Result(), *bare.result(core.Config{})
	if fres.Cells = nil; !reflect.DeepEqual(fres, wres) {
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
		checkEncodeRoundTrip(t, strconv.FormatFloat(f, 'g', -1, 64), ResultView{Cells: []float64{f}})
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
	checkEncodeRoundTrip(t, "random", ResultView{TallyTotal: 1.5, Events: 7, Cells: cells})

	full := resultViewOf(referenceResult(t))
	checkEncodeRoundTrip(t, "reference", full)
	full.Escapes = 3
	full.Leakage = &LeakageView{Weight: map[string]float64{"x-lo": 1e-9}, Energy: map[string]float64{"x-lo": 2.5}, TotalEnergy: 2.5}
	full.Ensemble = &EnsembleView{Replicas: 2, MeanTotal: 1e21, ReplicaTotals: []float64{0, 1}, RelErr: []float64{0, 0.5}}
	full.PhaseTimings = map[string]float64{"fused": 0.25, "merge": 1e-7}
	checkEncodeRoundTrip(t, "every block set", full)
	full.Cells = full.Cells[:1]
	checkEncodeRoundTrip(t, "one cell", full)
	full.Cells = []float64{}
	checkEncodeRoundTrip(t, "empty cells", full)
	full.Cells = nil
	checkEncodeRoundTrip(t, "nil cells", full)

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkEncodeRoundTrip(t, "unsupported cell", ResultView{Cells: []float64{0, bad, 1}})
		checkEncodeRoundTrip(t, "unsupported field", ResultView{TallyTotal: bad, Cells: []float64{0, 1}})
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

// plainResultView is ResultView without its UnmarshalJSON, and
// plainStoredView the one JSON form with it: what encoding/json alone makes
// of a document.
type plainResultView ResultView

type plainStoredView struct {
	plainResultView
	Runs *cellRuns `json:"runs"`
}

// checkDecodeMatchesStdlib decodes doc three ways — json.Unmarshal into a
// ResultView, a direct UnmarshalJSON call (which skips encoding/json's
// pre-scan of the document) and ParseFiled — against encoding/json's own
// reading of the one form. A document without runs must decode as
// encoding/json decodes it: the same error, or every cell the same bits (nil
// and empty told apart) and every other field equal. A document with runs
// must fail unless they are runs compactCells files and no cells stand beside
// them, and then read as their expansion. ParseFiled accepts exactly the
// valid runs documents.
func checkDecodeMatchesStdlib(t *testing.T, doc string) {
	t.Helper()
	var got, direct ResultView
	var want plainStoredView
	gerr := json.Unmarshal([]byte(doc), &got)
	derr := direct.UnmarshalJSON([]byte(doc))
	filed, ferr := ParseFiled([]byte(doc), core.Config{})
	werr := json.Unmarshal([]byte(doc), &want)
	runs := werr == nil && want.Runs != nil
	badRuns := runs && (want.Cells != nil || !want.Runs.valid())
	for _, path := range []struct {
		name    string
		err     error
		wantErr bool
	}{{"json.Unmarshal", gerr, werr != nil || badRuns}, {"UnmarshalJSON", derr, werr != nil || badRuns},
		{"ParseFiled", ferr, !runs || badRuns}} {
		if (path.err != nil) != path.wantErr {
			t.Fatalf("doc %.80q: %s err %v, encoding/json %v (runs %t, malformed %t)", doc, path.name, path.err, werr, runs, badRuns)
		}
		// The reference type's name appears in type errors; the wire type's
		// must appear in ours.
		if werr != nil && path.err.Error() != strings.NewReplacer("plainStoredView", "ResultView", "plainResultView.", "").Replace(werr.Error()) {
			t.Fatalf("doc %.80q: %s error %q, encoding/json %q", doc, path.name, path.err, werr)
		}
	}
	if werr != nil || badRuns {
		return
	}
	if runs {
		want.Cells = nil
		if want.Runs.N > 0 {
			want.Cells = want.Runs.expand(nil)
		}
	}
	what := fmt.Sprintf("doc %.80q: ", doc)
	checkSameCells(t, what+"json.Unmarshal", got.Cells, want.Cells)
	checkSameCells(t, what+"UnmarshalJSON", direct.Cells, want.Cells)
	wantView := ResultView(want.plainResultView)
	if runs {
		checkSameCells(t, what+"ParseFiled", filed.Result().Cells, want.Cells)
		// ParseFiled keeps what a core.Result carries of the view.
		fres, wres := *filed.Result(), *wantView.result(core.Config{})
		fres.Cells, wres.Cells = nil, nil
		if !reflect.DeepEqual(fres, wres) {
			t.Fatalf("doc %.80q: ParseFiled result differs:\n got  %+v\n want %+v", doc, fres, wres)
		}
	}
	got.Cells, direct.Cells, wantView.Cells = nil, nil, nil
	if !reflect.DeepEqual(got, wantView) || !reflect.DeepEqual(direct, wantView) {
		t.Fatalf("doc %.80q: fields differ:\n got  %+v\n direct %+v\n want %+v", doc, got, direct, wantView)
	}
}

// TestResultViewDecodeMatchesStdlib pins ResultView.UnmarshalJSON and
// ParseFiled to encoding/json: a dense cells member in any shape decodes to
// the same value or error, and a runs member reads as its cells exactly when
// its runs are well formed.
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
		// Runs beside cells, or runs compactCells would not file.
		`{"cells":[1,2,3],"runs":{"n":3}}`,
		`{"runs":{"n":1,"start":[0],"end":[1],"vals":[1]},"cells":[]}`,
		`{"Cells":[0],"runs":{"n":0}}`,
		`{"runs":{"n":-1}}`,
		`{"runs":{"n":2147483648}}`,
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
		data, err := fileResult(&core.Result{TallyTotal: rnd.NormFloat64(), Cells: cells}).encode(nil)
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

	// The real thing round-trips: the reference result in both forms.
	res := referenceResult(t)
	dense, err := json.Marshal(resultViewOf(res))
	if err != nil {
		t.Fatal(err)
	}
	stored, err := fileResult(res).encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{dense, stored} {
		checkDecodeMatchesStdlib(t, string(data))
		var rv ResultView
		if err := json.Unmarshal(data, &rv); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rv.Cells, res.Cells) {
			t.Fatal("cells changed across encode/decode")
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
// the reference result in that list's form: dense cells, then runs.
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
	res := referenceResult(f)
	dense, err := json.Marshal(resultViewOf(res))
	if err != nil {
		f.Fatal(err)
	}
	stored, err := fileResult(res).encode(nil)
	if err != nil {
		f.Fatal(err)
	}
	for i, ref := range [][]byte{dense, stored} {
		for _, doc := range lists[i] {
			f.Add(doc)
		}
		f.Add(string(ref))
	}
	f.Fuzz(checkDecodeMatchesStdlib)
}

// TestResultEncodedOnce: a single-run result has one JSON form. GET /result
// on the job that computed it, on a job born from an LRU hit and on one born
// from a blob-tier hit serves exactly the blob tier's bytes plus a newline —
// under a tenth of the dense cells' JSON — and it decodes to the dense view.
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
	dense, err := json.Marshal(resultViewOf(res))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("served %d bytes for %d of dense JSON", len(body), len(dense))
	if len(body)*10 > len(dense) {
		t.Errorf("served %d bytes, more than a tenth of the %d dense", len(body), len(dense))
	}
	var served ResultView
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(served, resultViewOf(res)) {
		t.Fatal("the served result does not decode to the dense view")
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
