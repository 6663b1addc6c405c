// Package harness regenerates every table and figure in the paper's
// evaluation (Figs 3-14 plus the in-text measurements). Each experiment
// returns a Figure: the same series the paper plots, produced either by
// running the instrumented solver natively (goroutines on the host) or by
// pricing measured workloads on the architecture model — DESIGN.md §9
// describes both kinds of row.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Scale selects experiment sizing.
type Scale int

const (
	// Quick shrinks native runs for smoke tests and CI: 3 pairs per native
	// comparison, about a second for the full suite.
	Quick Scale = iota
	// Standard is the default: 10 pairs per native comparison of runs
	// lasting ≥ 0.2 s, about four minutes for the full suite on a 2-vCPU
	// host.
	Standard
	// Full uses the paper's mesh and populations where natively
	// feasible (hours; model workloads always use paper scale).
	Full
)

// ParseScale reads quick/standard/full.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick":
		return Quick, nil
	case "standard", "":
		return Standard, nil
	case "full":
		return Full, nil
	default:
		return 0, fmt.Errorf("harness: unknown scale %q", s)
	}
}

// Options configures a harness run.
type Options struct {
	Scale Scale
	// Threads for native runs; 0 means GOMAXPROCS.
	Threads int
}

// Row is one line of a figure's data.
type Row struct {
	Label  string
	Values []float64
}

// Figure is a reproduced table/figure.
type Figure struct {
	ID      string // e.g. "fig09"
	Title   string
	Paper   string // the paper's finding, quoted or paraphrased
	Columns []string
	Rows    []Row
	Notes   []string
	// Findings summarises what this reproduction measured, in the same
	// terms as Paper, for EXPERIMENTS.md.
	Findings []string
	// Claims are the native comparisons, one per paper finding tested.
	Claims []Claim
}

// AddRow appends a data row.
func (f *Figure) AddRow(label string, values ...float64) {
	f.Rows = append(f.Rows, Row{Label: label, Values: values})
}

// Note appends a free-text note.
func (f *Figure) Note(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// Finding appends a measured-result line.
func (f *Figure) Finding(format string, args ...any) {
	f.Findings = append(f.Findings, fmt.Sprintf(format, args...))
}

// Value looks up a row label and column name.
func (f *Figure) Value(label, column string) (float64, bool) {
	col := -1
	for i, c := range f.Columns {
		if c == column {
			col = i
			break
		}
	}
	if col < 0 {
		return 0, false
	}
	for _, r := range f.Rows {
		if r.Label == label && col < len(r.Values) {
			return r.Values[col], true
		}
	}
	return 0, false
}

// Render writes the figure as an aligned text table.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	if f.Paper != "" {
		fmt.Fprintf(w, "paper: %s\n", f.Paper)
	}
	labelW := len("series")
	for _, r := range f.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	colW := make([]int, len(f.Columns))
	for i, c := range f.Columns {
		colW[i] = len(c) + 2
		if colW[i] < 14 {
			colW[i] = 14
		}
	}
	fmt.Fprintf(w, "%-*s", labelW+2, "series")
	for i, c := range f.Columns {
		fmt.Fprintf(w, "%*s", colW[i], c)
	}
	fmt.Fprintln(w)
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-*s", labelW+2, r.Label)
		for i, v := range r.Values {
			fmt.Fprintf(w, "%*s", colW[i], formatValue(v))
		}
		fmt.Fprintln(w)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, fd := range f.Findings {
		fmt.Fprintf(w, "measured: %s\n", fd)
	}
	for _, c := range f.Claims {
		fmt.Fprintf(w, "native: %s\n", c)
	}
	fmt.Fprintln(w)
}

// RenderMarkdown writes the figure as a Markdown section with a table.
func (f *Figure) RenderMarkdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", f.ID, f.Title)
	if f.Paper != "" {
		fmt.Fprintf(w, "**Paper:** %s\n\n", f.Paper)
	}
	fmt.Fprintf(w, "| series |")
	for _, c := range f.Columns {
		fmt.Fprintf(w, " %s |", c)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "|---|%s\n", strings.Repeat("---|", len(f.Columns)))
	for _, r := range f.Rows {
		fmt.Fprintf(w, "| %s |", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(w, " %s |", formatValue(v))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	for _, n := range f.Notes {
		fmt.Fprintf(w, "- note: %s\n", n)
	}
	for _, fd := range f.Findings {
		fmt.Fprintf(w, "- **measured:** %s\n", fd)
	}
	for _, c := range f.Claims {
		fmt.Fprintf(w, "- **native:** %s\n", c)
	}
	fmt.Fprintln(w)
}

func formatValue(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case v == 0:
		return "0"
	case av >= 1e6 || av < 1e-3:
		return fmt.Sprintf("%.3g", v)
	case av >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Experiment names an experiment and how to produce it.
type Experiment struct {
	ID  string
	Run func(Options) (*Figure, error)
}

var registry []Experiment

func register(id string, run func(Options) (*Figure, error)) {
	registry = append(registry, Experiment{ID: id, Run: run})
}

// Experiments lists all registered experiments in figure order.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}
