// Command benchmark is the repository's benchmark: one calibrated
// end-to-end and per-layer measurement over the solver, the service and the
// fleet. See README.md for the workload and metric catalogue.
//
//	benchmark --workload csp_op --seed 1 --seconds 14 --trace 0   one run, as the harness calls it
//	benchmark -seed 1                                            every workload, untraced then traced
//	benchmark -seed 1 -repeat 2                                  the whole set twice, compared against the bounds
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload; empty runs them all, each in its own process")
		seed         = flag.Uint64("seed", 1, "seed of every generated input")
		seconds      = flag.Int("seconds", defaultSeconds, "length of the measured phase on the reference host; scales the round count")
		trace        = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; -1: both (all-workload mode only)")
		repeat       = flag.Int("repeat", 1, "run the whole set this many times and compare the sets against the bounds")
		smoke        = flag.Bool("smoke", false, "run at about a twentieth of the size (seconds, not minutes; no reference bands)")
		out          = flag.String("out", "", "trace file of a traced run (default benchmark/out/trace-<workload>.json)")
		describe     = flag.Bool("describe", false, "print BENCHMARK.json as the metric catalogue defines it and exit")
	)
	flag.Parse()
	if *describe {
		data, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}
	if *workloadName != "" {
		if *trace != 0 && *trace != 1 {
			fatal(fmt.Errorf("-workload needs -trace 0 or -trace 1"))
		}
		res, err := runWorkload(runOpts{Workload: *workloadName, Seed: *seed, Seconds: *seconds,
			Trace: *trace == 1, Smoke: *smoke, Out: *out}, os.Stdout)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}
	if !runAll(*seed, *seconds, *trace, *repeat, *smoke) {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runAll runs every workload in a process of its own (so peak_rss_mb and
// failures are per workload), untraced then traced, repeat times over, and
// prints the comparison of the sets. It reports whether every run was
// correct and every comparison within its bound.
func runAll(seed uint64, seconds, trace, repeat int, smoke bool) bool {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	modes := []int{0, 1}
	if trace == 0 || trace == 1 {
		modes = []int{trace}
	}
	ok := true
	// sets[k][workload][metric] for the end-to-end metrics of set k.
	sets := make([]map[string]map[string]float64, repeat)
	for k := range sets {
		sets[k] = map[string]map[string]float64{}
		for _, w := range workloads {
			for _, mode := range modes {
				args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(mode)}
				if smoke {
					args = append(args, "-smoke")
				}
				res, err := runChild(self, args)
				if err != nil {
					fmt.Printf("FAILED %s trace %d: %v\n", w.Name, mode, err)
					ok = false
					continue
				}
				if !res.Correct {
					ok = false
				}
				if mode == 0 {
					m := map[string]float64{}
					for name, v := range res.Metrics {
						m[name] = v.Value
					}
					sets[k][w.Name] = m
				}
			}
		}
	}
	if repeat > 1 && !compareSets(sets) {
		ok = false
	}
	return ok
}

// runChild runs one workload in a child process, passing its report through
// and parsing the JSON object on its last line.
func runChild(self string, args []string) (result, error) {
	var res result
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		last = sc.Text()
		if !strings.HasPrefix(last, "{") {
			fmt.Println(last)
		}
	}
	werr := cmd.Wait()
	if jerr := json.Unmarshal([]byte(last), &res); jerr != nil {
		if werr != nil {
			return res, werr
		}
		return res, fmt.Errorf("no result line: %v", jerr)
	}
	fmt.Println()
	return res, nil
}

// compareSets prints, per workload and end-to-end metric, how much worse
// each later set's value is than the first set's, against the metric's
// bound. It reports whether every comparison is within its bound in both
// directions — the agreement two runs of the same code must show before the
// benchmark can hold a change to the bound.
func compareSets(sets []map[string]map[string]float64) bool {
	ok := true
	fmt.Printf("%-12s %-18s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set k", "diff", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, have := sets[0][w.Name][d.Name]
			if !have {
				continue
			}
			for k := 1; k < len(sets); k++ {
				bv, have := sets[k][w.Name][d.Name]
				if !have {
					continue
				}
				diff := worsening(a, bv, d.Better)
				flag := ""
				if diff > d.Bound || -diff > d.Bound {
					flag = "  EXCEEDS BOUND"
					ok = false
				}
				fmt.Printf("%-12s %-18s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", w.Name, d.Name, a, bv, diff*100, d.Bound*100, flag)
			}
		}
	}
	return ok
}

// benchmarkJSON renders BENCHMARK.json from the catalogue, so the file at the
// repository root and the program cannot drift apart (a test compares them).
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n'), err
}
