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
