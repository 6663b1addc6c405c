// Command archsim prices neutral workloads on the analytic models of the
// paper's five evaluation devices and prints component breakdowns.
//
// Usage:
//
//	archsim                               # full device x problem matrix
//	archsim -device p100 -problem csp     # one cell with breakdown
//	archsim -device knl -fastmem=false    # KNL from DDR4 instead of MCDRAM
//	archsim -device k20x -regcap 64       # the register-cap study
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/archmodel"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/tally"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "archsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		device  = flag.String("device", "", "device name (broadwell, broadwell-1s, knl, power8, k20x, p100); empty = all")
		problem = flag.String("problem", "", "problem (stream, scatter, csp); empty = all")
		scheme  = flag.String("scheme", "over-particles", "scheme")
		threads = flag.Int("threads", 0, "thread count (0 = device max)")
		fast    = flag.Bool("fastmem", true, "use the high-bandwidth tier where available (KNL MCDRAM)")
		vec     = flag.Bool("vectorised", true, "vectorise the Over Events kernels")
		regcap  = flag.Int("regcap", 0, "GPU register cap (0 = natural)")
		swAtom  = flag.Bool("sw-atomics", false, "force software (CAS) fp64 atomics")
		tmode   = flag.String("tally", "atomic", "tally mode being modelled")
	)
	flag.Parse()

	s, err := core.ParseScheme(*scheme)
	if err != nil {
		return err
	}
	tm, err := tally.ParseMode(*tmode)
	if err != nil {
		return err
	}

	devices := archmodel.Devices()
	if *device != "" {
		d, err := archmodel.DeviceByName(*device)
		if err != nil {
			return err
		}
		devices = []*archmodel.Device{d}
	}
	// Only 0 keeps a number flag's documented meaning: refuse the rest before the table.
	if *threads < 0 || *regcap < 0 {
		return fmt.Errorf("-threads %d, -regcap %d: neither may be negative", *threads, *regcap)
	}
	for _, d := range devices {
		if d.Kind == archmodel.CPU && *threads > d.MaxThreads() {
			return fmt.Errorf("-threads %d exceeds the %d threads of %s", *threads, d.MaxThreads(), d.Name)
		}
	}
	problems := []mesh.Problem{mesh.Stream, mesh.Scatter, mesh.CSP}
	if *problem != "" {
		p, err := mesh.ParseProblem(*problem)
		if err != nil {
			return err
		}
		problems = []mesh.Problem{p}
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer w.Flush()
	fmt.Fprintln(w, "device\tproblem\tscheme\tseconds\tcompute\tlatency\tbandwidth\tatomics\tsync\ttally-frac\toccupancy")
	for _, p := range problems {
		wl, err := archmodel.MeasureWorkload(p, s)
		if err != nil {
			return err
		}
		for _, d := range devices {
			o := archmodel.Options{
				Threads:              *threads,
				Vectorised:           *vec && s == core.OverEvents,
				Tally:                tm,
				CompactPlacement:     true,
				RegisterCap:          *regcap,
				ForceSoftwareAtomics: *swAtom,
			}
			if d.FastMem != nil {
				o.FastMem = *fast
			}
			pr := archmodel.Predict(d, wl, o)
			fmt.Fprintf(w, "%s\t%s\t%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.2f\t%.2f\n",
				d.Name, p, s, pr.Seconds, pr.Compute, pr.Latency, pr.Bandwidth,
				pr.Atomics, pr.Sync, pr.TallyFraction(), pr.Occupancy)
		}
	}
	return nil
}
