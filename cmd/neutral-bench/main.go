// Command neutral-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	neutral-bench                       # every experiment, text tables
//	neutral-bench -experiment fig09     # a single figure
//	neutral-bench -scale full           # paper-scale native runs (slow)
//	neutral-bench -markdown -o EXPERIMENTS.md
//	neutral-bench -json -o BENCH_ci.json  # machine-readable, for CI trending
//	neutral-bench -list                 # experiment ids
//
// Every native comparison alternates its two configurations in pairs (3 at
// quick scale, 10 otherwise) and prints one "native:" line per paper finding
// it tests: agrees, disagrees, or unresolved at this host's spread.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/harness"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "neutral-bench:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		experiment = flag.String("experiment", "", "run a single experiment (e.g. fig09); empty runs all")
		scale      = flag.String("scale", "standard", "native run scale: quick, standard or full")
		markdown   = flag.Bool("markdown", false, "render Markdown instead of text tables")
		jsonOut    = flag.Bool("json", false, "emit one machine-readable JSON document instead of rendered tables")
		outPath    = flag.String("o", "", "write output to a file instead of stdout")
		list       = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	sc, err := harness.ParseScale(*scale)
	if err != nil {
		return err
	}
	opt := harness.Options{Scale: sc}

	// A bufio.Writer keeps its first write error for every later Flush, so
	// the renderers, which drop theirs, need not check.
	out := bufio.NewWriter(os.Stdout)
	if *outPath != "" {
		f, cerr := os.Create(*outPath)
		if cerr != nil {
			return cerr
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		out.Reset(f)
	}
	if *list {
		for _, e := range harness.Experiments() {
			fmt.Fprintln(out, e.ID)
		}
		return out.Flush()
	}

	exps := harness.Experiments()
	if *experiment != "" {
		e, err := harness.ByID(*experiment)
		if err != nil {
			return err
		}
		exps = []harness.Experiment{e}
	}

	if *markdown && !*jsonOut {
		fmt.Fprintf(out, "# Reproduced evaluation (%s scale, generated %s)\n\n",
			*scale, time.Now().UTC().Format("2006-01-02"))
	}
	report := jsonReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Scale:     *scale,
	}
	for _, e := range exps {
		start := time.Now()
		fig, err := e.Run(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		elapsed := time.Since(start)
		switch {
		case *jsonOut:
			report.Figures = append(report.Figures, jsonFigure{
				Figure:  fig,
				Seconds: elapsed.Seconds(),
			})
		case *markdown:
			fig.RenderMarkdown(out)
		default:
			fig.Render(out)
		}
		if err := out.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%-12s done in %v\n", e.ID, elapsed.Round(time.Millisecond))
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	}
	return out.Flush()
}

// jsonReport is the -json document: every figure's rows, findings and
// native claims (each with its paired medians, IQR and pairs won) plus
// per-experiment wallclock, one self-describing artifact a CI run can
// archive and a trend dashboard can diff across commits.
type jsonReport struct {
	Generated string       `json:"generated"`
	Scale     string       `json:"scale"`
	Figures   []jsonFigure `json:"figures"`
}

type jsonFigure struct {
	*harness.Figure
	// Seconds is the wallclock this experiment took to regenerate.
	Seconds float64 `json:"seconds"`
}
