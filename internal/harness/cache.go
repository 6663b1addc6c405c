package harness

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/perfcount"
)

func init() { register("cache", CacheTable) }

// cacheVariant is one layout/ordering configuration of the cache table.
type cacheVariant struct {
	label string
	mod   func(*core.Config)
}

// CacheTable reproduces the cache-behaviour analysis behind the paper's
// layout discussion as a measured table: per-kernel perf counters for each
// particle layout, with and without the Morton mesh ordering plus periodic
// cell-sorted bank (DESIGN.md §2 and §3). Counters attach to the solver's
// RegionProbe hooks, so every count is attributed to exactly one kernel
// phase. On hosts where perf_event_open offers no events at all the table
// degrades to per-kernel wall time with a note — never an error.
func CacheTable(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:    "cache",
		Title: "Per-kernel cache counters by layout and mesh ordering (Over Events, CSP)",
		Paper: "§V: the event kernels are memory-bound; data layout and access order, not arithmetic, set their throughput",
	}
	variants := []cacheVariant{
		{"aos/row-major", func(c *core.Config) {}},
		{"aos/morton+sort", func(c *core.Config) { c.Ordering = mesh.Morton; c.SortEvery = 4 }},
		{"soa/row-major", func(c *core.Config) { c.Layout = particle.SoA }},
		{"soa/morton+sort", func(c *core.Config) {
			c.Layout = particle.SoA
			c.Ordering = mesh.Morton
			c.SortEvery = 4
		}},
	}
	supported := true
	var names []string
	// missRates[variant] = {l1d: rate, llc: rate} aggregated over kernels.
	type agg struct{ l1dLoads, l1dMiss, llcLoads, llcMiss uint64 }
	sums := map[string]*agg{}
	for _, v := range variants {
		cfg := nativeConfig(mesh.CSP, opt)
		cfg.Scheme = core.OverEvents
		v.mod(&cfg)
		sim, err := core.NewSimulation(cfg)
		if err != nil {
			return nil, err
		}
		col, err := perfcount.NewCollector(perfcount.DefaultEvents()...)
		switch {
		case errors.Is(err, perfcount.ErrUnsupported):
			supported = false
		case err != nil:
			return nil, err
		default:
			sim.SetRegionProbe(col)
			names = col.Names()
		}
		res, err := sim.Run()
		if err != nil {
			if col != nil {
				col.Close()
			}
			return nil, err
		}
		phases := map[string]map[string]uint64{}
		if col != nil {
			phases = col.Phases()
			col.Close()
		}
		sum := &agg{}
		sums[v.label] = sum
		res.Phases.Each(func(phase string, d time.Duration) {
			vals := []float64{d.Seconds() * 1e3}
			for _, ev := range names {
				vals = append(vals, float64(phases[phase][ev]))
			}
			fig.AddRow(v.label+"/"+phase, vals...)
			sum.l1dLoads += phases[phase]["l1d-loads"]
			sum.l1dMiss += phases[phase]["l1d-load-misses"]
			sum.llcLoads += phases[phase]["llc-loads"]
			sum.llcMiss += phases[phase]["llc-load-misses"]
		})
	}
	fig.Columns = append([]string{"wall-ms"}, names...)
	if !supported {
		fig.Note("performance counters unsupported on this host (perf_event_open offered no events); table shows per-kernel wall time only")
		return fig, nil
	}
	fig.Note("counter columns are per-kernel counts from perf_event_open groups attached via the solver RegionProbe hooks; multiplexed counters are time-scaled")
	for _, v := range variants {
		s := sums[v.label]
		if s.l1dLoads == 0 {
			continue
		}
		line := fmt.Sprintf("%s: L1d miss rate %.2f%%", v.label,
			100*float64(s.l1dMiss)/float64(s.l1dLoads))
		if s.llcLoads > 0 {
			line += fmt.Sprintf(", LLC miss rate %.2f%%",
				100*float64(s.llcMiss)/float64(s.llcLoads))
		}
		fig.Finding("%s", line)
	}
	return fig, nil
}
