// Command benchgate is the CI benchmark regression gate. It takes two
// `go test -c` binaries of ./internal/core, the parent commit's and the
// change's, runs their solver benchmark rows alternately, the side that
// goes first flipping with each pair, and judges each row against its own
// parent samples: host speed cancels, and a row that speeds up moves no
// other row's verdict. A row printed by only one side is reported as new
// or gone.
//
// Usage:
//
//	go test -c -o parent.test ./internal/core   # in a checkout of the parent
//	go test -c -o change.test ./internal/core
//	benchgate parent.test change.test
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
)

// The gate runs pairs parent/change pairs of the rows benchmarks, failing a
// row whose median ratio passes bound in most pairs. A row spreads ~12% on a
// shared 2-vCPU host, where 10 pairs failed a parent against itself 5 in 10.
const (
	pairs = 50
	bound = 1.10
	rows  = "BenchmarkOverEvents|BenchmarkUninterruptedSolve"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchgate parent.test change.test")
		os.Exit(2)
	}
	parent, change, err := measure(os.Args[1], os.Args[2])
	if err == nil && report(os.Stdout, parent, change) {
		err = fmt.Errorf("a row is over %.0f%% slower in most pairs", (bound-1)*100)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// measure runs the two binaries alternately, pairs times each, and returns
// every row's ns/op samples per side in pair order.
func measure(parentBin, changeBin string) (parent, change map[string][]float64, err error) {
	bins, got := [2]string{parentBin, changeBin}, [2]map[string][]float64{{}, {}}
	for i := 0; i < 2*pairs; i++ {
		side := i%2 ^ i/2%2 // the parent goes first in even pairs, second in odd
		// A Cmd literal runs Path as given, "parent.test" too, with no $PATH lookup.
		cmd := &exec.Cmd{Path: bins[side], Args: []string{bins[side], "-test.bench", rows, "-test.benchtime", "3x", "-test.run", "^$"}}
		out, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w\n%s", bins[side], err, out)
		}
		parse(bytes.NewReader(out), got[side])
	}
	if len(got[0]) == 0 || len(got[1]) == 0 {
		return nil, nil, fmt.Errorf("a binary printed no %s row", rows)
	}
	return got[0], got[1], nil
}

// benchLine matches e.g. "BenchmarkOverEvents/aos-2  3  88969999 ns/op  0.35 active-fraction",
// capturing the name without its -GOMAXPROCS suffix and the ns/op.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op`)

// parse appends each benchmark line's ns/op to its row in into.
func parse(r io.Reader, into map[string][]float64) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if m := benchLine.FindStringSubmatch(sc.Text()); m != nil {
			v, _ := strconv.ParseFloat(m[2], 64) // benchLine admits only decimals
			into[m[1]] = append(into[m[1]], v)
		}
	}
}

// verdict compares one row's paired samples.
type verdict struct {
	parent, change       float64 // medians, ns/op
	iqr                  float64 // the parent's interquartile range
	changeWon, parentWon int     // pairs each side ran faster; a tie counts for neither
	result               string  // "better", "worse" or "unresolved"
}

// judge compares the samples of pair i, parent[i] against change[i].
func judge(parent, change []float64) verdict {
	n := min(len(parent), len(change))
	v := verdict{parent: quantile(parent, 0.5), change: quantile(change, 0.5),
		iqr: quantile(parent, 0.75) - quantile(parent, 0.25), result: "unresolved"}
	for i := 0; i < n; i++ {
		if change[i] < parent[i] {
			v.changeWon++
		} else if change[i] > parent[i] {
			v.parentWon++
		}
	}
	if v.change > bound*v.parent && 2*v.parentWon > n {
		v.result = "worse"
	} else if bound*v.change < v.parent && 2*v.changeWon > n {
		v.result = "better"
	}
	return v
}

// quantile interpolates linearly between the order statistics of s.
func quantile(s []float64, q float64) float64 {
	s = slices.Sorted(slices.Values(s))
	pos := q * float64(len(s)-1)
	lo := int(pos)
	return s[lo] + (pos-float64(lo))*(s[min(lo+1, len(s)-1)]-s[lo])
}

// report writes one line per row, in name order, and reports whether any
// row's verdict is worse.
func report(w io.Writer, parent, change map[string][]float64) (failed bool) {
	all := maps.Clone(parent)
	maps.Copy(all, change)
	for _, name := range slices.Sorted(maps.Keys(all)) {
		p, c := parent[name], change[name]
		switch {
		case p == nil:
			fmt.Fprintf(w, "%-48s new\n", name)
		case c == nil:
			fmt.Fprintf(w, "%-48s gone\n", name)
		default:
			v := judge(p, c)
			fmt.Fprintf(w, "%-48s parent %11.0f (IQR %9.0f)  change %11.0f  %.3fx  faster in %d/%d pairs, slower in %d  %s\n",
				name, v.parent, v.iqr, v.change, v.change/v.parent, v.changeWon, min(len(p), len(c)), v.parentWon, v.result)
			failed = failed || v.result == "worse"
		}
	}
	return failed
}
