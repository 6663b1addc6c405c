package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/stats"
)

func quickOpts() Options { return Options{Scale: Quick} }

// TestAllExperimentsRun executes every registered experiment at quick scale
// and sanity-checks the produced figures.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiments take a few seconds")
	}
	exps := Experiments()
	if len(exps) != 18 {
		t.Fatalf("registered %d experiments, want 18 (figs 3-14 + 4 in-text + ensemble + cache)", len(exps))
	}
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			fig, err := e.Run(quickOpts())
			if err != nil {
				t.Fatal(err)
			}
			if fig.ID != e.ID {
				t.Errorf("figure id %q != experiment id %q", fig.ID, e.ID)
			}
			if len(fig.Rows) == 0 {
				t.Error("no data rows")
			}
			if len(fig.Columns) == 0 {
				t.Error("no columns")
			}
			for _, r := range fig.Rows {
				if len(r.Values) != len(fig.Columns) {
					t.Errorf("row %q has %d values for %d columns", r.Label, len(r.Values), len(fig.Columns))
				}
			}
			var buf bytes.Buffer
			fig.Render(&buf)
			if !strings.Contains(buf.String(), fig.ID) {
				t.Error("render missing figure id")
			}
			var md bytes.Buffer
			fig.RenderMarkdown(&md)
			if !strings.Contains(md.String(), "|") {
				t.Error("markdown render missing table")
			}
		})
	}
}

// TestFigureShapes spot-checks that the harness figures reproduce the
// paper's qualitative results (the archmodel shape tests check the model in
// depth; this checks the wiring).
func TestFigureShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiments take a few seconds")
	}
	fig9, err := Figure09(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := fig9.Value("model-csp", "oe/op"); !ok || r < 2 {
		t.Errorf("fig09 model csp oe/op = %v, want > 2 (paper 4.56)", r)
	}
	if r, ok := fig9.Value("native-csp", "oe/op"); !ok || r <= 1 {
		t.Errorf("fig09 native csp oe/op = %v, want > 1 (over-particles wins natively too)", r)
	}
	if len(fig9.Claims) != len(problems) {
		t.Errorf("fig09 has %d native claims, want one per problem", len(fig9.Claims))
	}
	for _, c := range fig9.Claims {
		if c.Subject == "csp" && c.Outcome != "agrees" {
			t.Errorf("fig09 native csp: %s, want agrees", c)
		}
	}

	fig10, err := Figure10(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	gOE, _ := fig10.Value("over-events-csp", "mcdram-gain")
	gOP, _ := fig10.Value("over-particles-csp", "mcdram-gain")
	if gOE <= gOP {
		t.Errorf("fig10: over-events MCDRAM gain (%v) should exceed over-particles' (%v)", gOE, gOP)
	}

	fig14, err := Figure14(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	p100, _ := fig14.Value("model-p100", "csp-s")
	bdw, _ := fig14.Value("model-broadwell", "csp-s")
	k20x, _ := fig14.Value("model-k20x", "csp-s")
	if !(p100 < bdw && bdw < k20x) {
		t.Errorf("fig14 csp ordering wrong: p100 %v, broadwell %v, k20x %v", p100, bdw, k20x)
	}

	fig5, err := Figure05(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"stream", "scatter", "csp"} {
		if r, ok := fig5.Value("model-broadwell-1s-"+p, "soa/aos"); !ok || r < 1 {
			t.Errorf("fig05 %s: modelled SoA should lose to AoS, ratio %v", p, r)
		}
	}
}

func TestParseScale(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Scale
	}{{"quick", Quick}, {"standard", Standard}, {"", Standard}, {"full", Full}} {
		got, err := ParseScale(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseScale(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig09"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFigureValueLookup(t *testing.T) {
	f := &Figure{Columns: []string{"a", "b"}}
	f.AddRow("r1", 1, 2)
	if v, ok := f.Value("r1", "b"); !ok || v != 2 {
		t.Error("value lookup failed")
	}
	if _, ok := f.Value("r1", "zzz"); ok {
		t.Error("bogus column found")
	}
	if _, ok := f.Value("zzz", "a"); ok {
		t.Error("bogus row found")
	}
}

// TestAgreement: the paper's expected direction against the runner's
// verdict. A "within" finding needs the medians within the bound too.
func TestAgreement(t *testing.T) {
	v := func(result string, a, b float64) stats.Verdict { return stats.Verdict{A: a, B: b, Result: result} }
	for _, c := range []struct {
		e    expect
		v    stats.Verdict
		want string
	}{
		{faster, v("better", 1, 0.5), "agrees"},
		{faster, v("worse", 1, 2), "disagrees"},
		{faster, v("unresolved", 1, 0.5), "unresolved"},
		{slower, v("worse", 1, 2), "agrees"},
		{slower, v("better", 1, 0.5), "disagrees"},
		{slower, v("unresolved", 1, 2), "unresolved"},
		{within, v("unresolved", 1, 1.02), "agrees"},
		{within, v("unresolved", 1, 0.98), "agrees"},
		{within, v("unresolved", 1, 1.5), "unresolved"},
		{within, v("better", 1, 0.5), "disagrees"},
		{within, v("worse", 1, 2), "disagrees"},
	} {
		if got := agreement(c.e, c.v, 1.05); got != c.want {
			t.Errorf("expect %d, verdict %s (%v -> %v): %s, want %s", c.e, c.v.Result, c.v.A, c.v.B, got, c.want)
		}
	}
}
