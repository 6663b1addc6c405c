package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func repeat(v float64, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name                 string
		parent, change       []float64
		result               string
		changeWon, parentWon int
	}{
		{"15% slower in 6 of 10 pairs fails",
			repeat(100, 10), append(repeat(115, 6), repeat(99, 4)...), "worse", 4, 6},
		// The change's median is 115 against the parent's 100, as above, but
		// the change is slower only in pairs 0-3.
		{"15% median gap in 4 of 10 pairs holds",
			[]float64{90, 90, 90, 90, 100, 100, 130, 130, 130, 130},
			[]float64{115, 115, 115, 115, 99, 99, 120, 120, 120, 120}, "unresolved", 6, 4},
		// Median 112.5: counted for the parent, the five ties would make ten
		// slower pairs of ten.
		{"ties count for neither side",
			repeat(100, 10), append(repeat(100, 5), repeat(125, 5)...), "unresolved", 0, 5},
		{"20% faster in every pair",
			repeat(100, 10), repeat(80, 10), "better", 10, 0},
		{"noise within the bound",
			[]float64{100, 103, 98, 101, 99, 102, 100, 97, 104, 100},
			[]float64{101, 102, 99, 100, 100, 103, 98, 99, 103, 101}, "unresolved", 4, 6},
	} {
		v := judge(c.parent, c.change)
		if v.result != c.result || v.changeWon != c.changeWon || v.parentWon != c.parentWon {
			t.Errorf("%s: got %s, change won %d, parent won %d; want %s, %d, %d",
				c.name, v.result, v.changeWon, v.parentWon, c.result, c.changeWon, c.parentWon)
		}
	}

	// Medians and the IQR interpolate between order statistics, and the
	// samples' order is the pairing, not theirs.
	v := judge([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, []float64{4, 2, 3, 1})
	if v.parent != 5.5 || v.change != 2.5 || v.iqr != 4.5 {
		t.Errorf("medians %v, %v and IQR %v; want 5.5, 2.5 and 4.5", v.parent, v.change, v.iqr)
	}
}

func TestParse(t *testing.T) {
	out := `goos: linux
pkg: repro/internal/core
BenchmarkUninterruptedSolve-2   	       3	  70137969 ns/op
BenchmarkOverEvents/layout=aos/row-major/t1-16         	       3	  28313463 ns/op	         0.3555 active-fraction	       105.5 collision-ns/visit
BenchmarkOverEvents/layout=aos/row-major/t2         	       3	  21239615.5 ns/op	         0.3555 active-fraction
BenchmarkUninterruptedSolve-2   	       3	  69000000 ns/op
PASS
ok  	repro/internal/core	1.368s
`
	got := map[string][]float64{}
	parse(strings.NewReader(out), got)
	want := map[string][]float64{
		"BenchmarkUninterruptedSolve":                 {70137969, 69000000},
		"BenchmarkOverEvents/layout=aos/row-major/t1": {28313463},
		"BenchmarkOverEvents/layout=aos/row-major/t2": {21239615.5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parse = %v, want %v", got, want)
	}
}

func TestReport(t *testing.T) {
	parent := map[string][]float64{"BenchmarkA": repeat(100, 10), "BenchmarkGone": repeat(100, 10)}
	change := map[string][]float64{"BenchmarkA": repeat(101, 10), "BenchmarkNew": repeat(500, 10)}
	var buf bytes.Buffer
	if report(&buf, parent, change) {
		t.Errorf("a row on one side failed the gate:\n%s", buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || !strings.HasSuffix(lines[0], "unresolved") ||
		strings.Fields(lines[1])[1] != "gone" || strings.Fields(lines[2])[1] != "new" {
		t.Errorf("report:\n%s", buf.String())
	}

	change["BenchmarkA"] = repeat(120, 10)
	buf.Reset()
	if !report(&buf, parent, change) || !strings.Contains(buf.String(), "worse") {
		t.Errorf("a row 20%% slower in every pair passed:\n%s", buf.String())
	}
}
