// Command benchgate is the CI benchmark regression gate. It parses `go test
// -bench` output (stdin or -in), looks each benchmark up in a committed
// baseline file, and fails when any benchmark's wallclock regressed more
// than the threshold.
//
// CI runners are not the reference machine, so raw ns/op comparisons would
// gate on host speed, not code. The gate therefore normalises by the
// geometric mean of all current/baseline ratios: a uniformly slower host
// shifts every ratio equally and cancels out, while one benchmark
// regressing relative to the others stands out. On the reference machine
// the normalisation factor is ~1 and the gate is an absolute one.
//
// Usage:
//
//	go test -bench 'OverEvents|UninterruptedSolve' -benchtime 3x -count 4 -run '^$' ./internal/core |
//	    benchgate -baseline BENCH_pr48.json
//
// The baseline file carries a "benchmarks" object mapping benchmark name
// (as printed by go test, minus the -GOMAXPROCS suffix) to ns/op. Repeated
// lines for the same benchmark (-count N) collapse to their minimum before
// comparison: the minimum is the noise-robust statistic on a shared runner —
// background load only ever adds time — so CI should always pass -count.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// benchLine matches e.g. "BenchmarkOverEvents/aos-1  3  88969999 ns/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

func run() error {
	var (
		baselinePath = flag.String("baseline", "BENCH_pr48.json", "baseline JSON with a benchmarks{name: ns/op} object")
		inPath       = flag.String("in", "", "benchmark output to check (default stdin)")
		threshold    = flag.Float64("threshold", 1.10, "fail when normalised current/baseline exceeds this")
	)
	flag.Parse()

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var doc struct {
		Benchmarks map[string]float64 `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("%s: %w", *baselinePath, err)
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("%s has no benchmarks object", *baselinePath)
	}

	var in io.Reader = os.Stdin
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	// Collapse repeated lines (-count N) to the per-benchmark minimum; see
	// the package comment for why min is the right statistic.
	best := map[string]float64{}
	var order []string
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		if base, ok := doc.Benchmarks[m[1]]; !ok || base <= 0 {
			continue
		}
		cur, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if prev, ok := best[m[1]]; !ok {
			best[m[1]] = cur
			order = append(order, m[1])
		} else if cur < prev {
			best[m[1]] = cur
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(best) == 0 {
		return fmt.Errorf("no benchmark in the input matched a baseline entry")
	}

	type entry struct {
		name           string
		current, ratio float64
		baseline       float64
	}
	entries := make([]entry, 0, len(best))
	for _, name := range order {
		base := doc.Benchmarks[name]
		cur := best[name]
		entries = append(entries, entry{name: name, current: cur, baseline: base, ratio: cur / base})
	}

	logSum := 0.0
	for _, e := range entries {
		logSum += math.Log(e.ratio)
	}
	drift := math.Exp(logSum / float64(len(entries)))
	fmt.Printf("host drift vs baseline machine: %.2fx (geomean of %d benchmarks)\n", drift, len(entries))

	failed := false
	for _, e := range entries {
		norm := e.ratio / drift
		status := "ok"
		if norm > *threshold {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("%-50s base %12.0f  cur %12.0f  normalised %.3fx  %s\n",
			e.name, e.baseline, e.current, norm, status)
	}
	if failed {
		return fmt.Errorf("benchmark regression over %.0f%% threshold", (*threshold-1)*100)
	}
	return nil
}
