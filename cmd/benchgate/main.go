// Command benchgate is the CI benchmark regression gate. It takes `go test -c`
// binaries in parent/change pairs, one pair per package (./internal/core's
// solve, bind and finish rows, ./internal/service's result rows), runs the
// two sides in the paired runner's alternating order (stats.Alternate: the
// side that goes first flips with each pair) and judges each benchmark row
// against its own parent samples (stats.Judge): host speed cancels, and a
// row that speeds up moves no other row's verdict. A row printed by only one
// side is reported as new or gone. After the rows it prints each family's
// wall per side, the gate's own budget.
//
// Usage:
//
//	go test -c -o parent.test ./internal/core   # in a checkout of the parent
//	go test -c -o parent-service.test ./internal/service
//	go test -c -o change.test ./internal/core
//	go test -c -o change-service.test ./internal/service
//	benchgate parent.test change.test parent-service.test change-service.test
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
	"time"

	"repro/internal/stats"
)

// The gate runs pairs parent/change pairs of the rows benchmarks, failing a
// row whose median ratio passes bound in most pairs. A row spreads ~12% on a
// shared 2-vCPU host, where 10 pairs failed a parent against itself 5 in 10.
const (
	pairs = 50
	bound = 1.10
)

// rows are the gated benchmarks, each family at its own iteration count: a
// solve takes tens of milliseconds, a bind milliseconds, a finish after one
// step (each built and stepped off the clock) tens to hundreds of
// microseconds, a result encode or decode tens of microseconds. A binary runs
// every family and prints the rows it has.
var rows = []struct{ bench, times string }{
	{"BenchmarkOverEvents|BenchmarkUninterruptedSolve", "3x"},
	{"BenchmarkNewSimulation/(repeat|births)", "50x"},
	{"BenchmarkFinalize", "10x"},
	{"BenchmarkResultJSON", "1000x"},
}

func main() {
	if len(os.Args) < 3 || len(os.Args)%2 == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchgate parent.test change.test [parent.test change.test ...]")
		os.Exit(2)
	}
	var bins [2][]string
	for i, bin := range os.Args[1:] {
		bins[i%2] = append(bins[i%2], bin)
	}
	parent, change, walls, err := measure(bins)
	if err == nil {
		failed := report(os.Stdout, parent, change)
		for i, r := range rows {
			fmt.Printf("wall %-43s parent %6.1f s  change %6.1f s\n", r.bench, walls[0][i].Seconds(), walls[1][i].Seconds())
		}
		if failed {
			err = fmt.Errorf("a row is over %.0f%% slower in most pairs", (bound-1)*100)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// measure runs each side's binaries alternately with the other side's, pairs
// times each, and returns every row's ns/op samples per side in pair order and
// each family's wall per side, summed over its runs.
func measure(bins [2][]string) (parent, change map[string][]float64, walls [2][]time.Duration, err error) {
	got := [2]map[string][]float64{{}, {}}
	walls = [2][]time.Duration{make([]time.Duration, len(rows)), make([]time.Duration, len(rows))}
	err = stats.Alternate(pairs, func(side int) error {
		for _, bin := range bins[side] {
			for i, r := range rows {
				// A Cmd literal runs Path as given, "parent.test" too, with no $PATH lookup.
				cmd := &exec.Cmd{Path: bin, Args: []string{bin, "-test.bench", r.bench, "-test.benchtime", r.times, "-test.run", "^$"}}
				start := time.Now()
				out, err := cmd.Output()
				walls[side][i] += time.Since(start)
				if err != nil {
					return fmt.Errorf("%s: %w\n%s", bin, err, out)
				}
				parse(bytes.NewReader(out), got[side])
			}
		}
		return nil
	})
	if err == nil && (len(got[0]) == 0 || len(got[1]) == 0) {
		err = fmt.Errorf("a side printed no gated row")
	}
	return got[0], got[1], walls, err
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
			v := stats.Judge(p, c, bound)
			fmt.Fprintf(w, "%-48s parent %11.0f (IQR %9.0f)  change %11.0f  %.3fx  faster in %d/%d pairs, slower in %d  %s\n",
				name, v.A, v.IQR, v.B, v.B/v.A, v.BWon, v.Pairs, v.AWon, v.Result)
			failed = failed || v.Result == "worse"
		}
	}
	return failed
}
