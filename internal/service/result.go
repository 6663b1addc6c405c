package service

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/stats"
)

// ResultView is a completed run as a client reads it: the quantities it
// consumes, flattened from core.Result (whose Config carries non-serialisable
// hooks). On the wire the cells travel as their runs (storedResult);
// UnmarshalJSON expands them into Cells.
type ResultView struct {
	TallyTotal  float64 `json:"tally_total"`
	WallSeconds float64 `json:"wall_seconds"`
	// WallNS is the solver wallclock in integer nanoseconds — the exact
	// transport twin of the rounded WallSeconds, so a coordinator
	// reconstructing a remote result loses nothing.
	WallNS            int64     `json:"wall_ns,omitempty"`
	Events            uint64    `json:"events"`
	FacetEvents       uint64    `json:"facet_events"`
	CollisionEvents   uint64    `json:"collision_events"`
	CensusEvents      uint64    `json:"census_events"`
	Deaths            uint64    `json:"deaths"`
	ConservationError float64   `json:"conservation_error"`
	LoadImbalance     float64   `json:"load_imbalance"`
	Cells             []float64 `json:"cells,omitempty"`
	// Escapes and Leakage report vacuum-boundary losses; both absent on
	// all-reflective scenes.
	Escapes uint64       `json:"escapes,omitempty"`
	Leakage *LeakageView `json:"leakage,omitempty"`
	// Counters is the full solver counter vector — the lossless transport
	// block a fleet coordinator folds into merged statistics. The summary
	// fields above stay for human and dashboard consumption.
	Counters *core.Counters `json:"counters,omitempty"`
	// Ensemble carries the merged uncertainty statistics of an ensemble
	// job; absent for single runs.
	Ensemble *EnsembleView `json:"ensemble,omitempty"`
	// PhaseTimings attributes solver wallclock to kernel phases, in
	// seconds, keyed by canonical phase name (event-kernel,
	// collision-kernel, facet-kernel, tally-kernel, fused, merge,
	// control); zero phases are omitted, and the block is absent when no
	// phase recorded any time.
	PhaseTimings map[string]float64 `json:"phase_timings,omitempty"`
}

// LeakageView is the wire form of the per-edge vacuum losses, keyed by edge
// name (x-lo, x-hi, y-lo, y-hi); edges that leaked nothing are omitted.
type LeakageView struct {
	// Weight is the escaped statistical weight per edge; Energy the
	// escaped weight-energy in weight-eV.
	Weight map[string]float64 `json:"weight"`
	Energy map[string]float64 `json:"energy"`
	// TotalEnergy sums Energy over the edges.
	TotalEnergy float64 `json:"total_energy"`
}

func leakageViewOf(res *core.Result) *LeakageView {
	if res.Counter.Escapes == 0 {
		return nil
	}
	v := &LeakageView{
		Weight:      map[string]float64{},
		Energy:      map[string]float64{},
		TotalEnergy: res.Leakage.TotalEnergy(),
	}
	for e := mesh.Edge(0); e < mesh.NumEdges; e++ {
		if res.Leakage.Weight[e] != 0 || res.Leakage.Energy[e] != 0 {
			v.Weight[e.String()] = res.Leakage.Weight[e]
			v.Energy[e.String()] = res.Leakage.Energy[e]
		}
	}
	return v
}

// EnsembleView is the wire representation of merged ensemble statistics.
type EnsembleView struct {
	Replicas int `json:"replicas"`
	// MeanTotal is the ensemble-mean total tally; TotalRelErr its
	// relative error (1σ of the mean).
	MeanTotal   float64 `json:"mean_total"`
	TotalRelErr float64 `json:"total_rel_err"`
	// AvgRelErr and MaxRelErr summarise the per-cell relative error over
	// the ScoredCells cells with a nonzero mean.
	AvgRelErr   float64 `json:"avg_rel_err"`
	MaxRelErr   float64 `json:"max_rel_err"`
	ScoredCells int     `json:"scored_cells"`
	// FOM is the figure of merit 1/(avg_rel_err² · solver seconds).
	FOM           float64 `json:"fom"`
	SolverSeconds float64 `json:"solver_seconds"`
	// ReplicaTotals lists each replica's total tally in replica order.
	ReplicaTotals []float64 `json:"replica_totals,omitempty"`
	// RelErr is the per-cell relative error map (keep_cells only, like
	// the result's cells).
	RelErr []float64 `json:"rel_err,omitempty"`
}

func ensembleViewOf(ens *stats.Ensemble, keepCells bool) *EnsembleView {
	v := &EnsembleView{
		Replicas:      ens.Replicas,
		MeanTotal:     ens.MeanTotal,
		TotalRelErr:   ens.TotalRelErr,
		AvgRelErr:     ens.AvgRelErr,
		MaxRelErr:     ens.MaxRelErr,
		ScoredCells:   ens.ScoredCells,
		FOM:           ens.FOM,
		SolverSeconds: ens.SolverWall.Seconds(),
		ReplicaTotals: ens.Totals,
	}
	if keepCells {
		v.RelErr = ens.RelErr
	}
	return v
}

// Filed is a finished result as the engine keeps it and a coordinator receives
// it: the core.Result without its cells, its view as served, and the cells as
// their runs of non-zero values. A 256² csp result deposits in 336 of its
// 65 536 cells, so what an engine remembers grows with what was deposited, not
// with the mesh. Each result is filed once, at its source (fileResult,
// ParseFiled), and shared by every job served from it.
type Filed struct {
	// res is the result with Cells nil — or, for a result that had no cells,
	// the very pointer it arrived as.
	res   *core.Result
	cells cellRuns
	// view is what encode writes beside the runs: resultViewOf(res) for a
	// result filed here, the view it arrived with for a parsed one. So every
	// tier and hop that serves the result writes the same bytes, the phase
	// timings and load imbalance of the run that produced it included.
	view plainView

	// dense is res with its cells expanded, built by the first Result call.
	once  sync.Once
	dense *core.Result
}

// fileResult files res. res is not modified; the caller drops it, and with it
// the dense cells.
func fileResult(res *core.Result) *Filed {
	f := &Filed{res: res, view: plainView(resultViewOf(res))}
	f.view.Cells = nil
	if len(res.Cells) > 0 {
		r := *res
		r.Cells = nil
		f.res, f.cells = &r, compactCells(res.Cells)
	}
	return f
}

// Result returns the dense result: built on the first call, the same pointer
// on every later one. The caller must treat it as immutable. The engine never
// calls it: dense cells are built only for a library caller.
func (f *Filed) Result() *core.Result {
	if f.cells.N == 0 {
		return f.res
	}
	f.once.Do(func() {
		r := *f.res
		r.Cells = f.cells.expand(nil)
		f.dense = &r
	})
	return f.dense
}

// storedResult is a result's one JSON form, kept in the blob tier and served
// by GET /result: the view but its cells, and the cells as their runs. So
// written, the reference 256² csp result is ≈ 9 KB, where its dense cells
// alone were 137 KB, 99.5 % of whose numbers were zeros.
type storedResult struct {
	plainView
	Runs *cellRuns `json:"runs"`
}

// plainView is ResultView without its UnmarshalJSON.
type plainView ResultView

// encode returns f's JSON form, with ens the merged statistics of an ensemble
// job (nil for a single run): a single run's blob-tier bytes and, with a
// newline, the body of GET /result. ParseFiled reads it back.
func (f *Filed) encode(ens *EnsembleView) ([]byte, error) {
	v := f.view
	v.Ensemble = ens
	return json.Marshal(storedResult{v, &f.cells})
}

// ParseFiled files a result from its JSON form: a blob-tier entry, or the body
// of GET /result as a fleet coordinator fetches it. cfg stands in for the
// producing run's config, which the form does not carry. The core.Result
// leaves out the phase timings and per-worker busy spans, which describe the
// producing process; the view it serves keeps them, and drops an ensemble
// block, which the serving job supplies. It fails on anything encode does not
// write: malformed JSON, a document without runs (the dense cells an older
// engine wrote), or one that decodeResult rejects.
func ParseFiled(data []byte, cfg core.Config) (*Filed, error) {
	s, err := decodeResult(data)
	if err == nil && s.Runs == nil {
		err = errors.New("service: result has no runs")
	}
	if err != nil {
		return nil, err
	}
	s.Ensemble = nil
	return &Filed{res: (*ResultView)(&s.plainView).result(cfg), cells: *s.Runs, view: s.plainView}, nil
}

// UnmarshalJSON reads a result in its JSON form into dense Cells, so a Go
// client decodes GET /result with encoding/json. A document with dense cells
// and no runs decodes as encoding/json alone would decode it.
func (v *ResultView) UnmarshalJSON(data []byte) error {
	s, err := decodeResult(data)
	if err != nil {
		return err
	}
	if s.Runs != nil && s.Runs.N > 0 {
		s.Cells = s.Runs.expand(nil)
	}
	*v = ResultView(s.plainView)
	return nil
}

// decodeResult decodes data with encoding/json, whose errors name the wire type
// ResultView. Runs must be what compactCells files, and never beside cells: a
// document carrying both has no one reading.
func decodeResult(data []byte) (s storedResult, err error) {
	err = json.Unmarshal(data, &s)
	var typeErr *json.UnmarshalTypeError
	switch {
	case errors.As(err, &typeErr):
		if typeErr.Struct == "storedResult" {
			typeErr.Struct = "ResultView"
		}
		typeErr.Field = strings.TrimPrefix(typeErr.Field, "plainView.")
		if typeErr.Type == reflect.TypeOf(s) {
			typeErr.Type = reflect.TypeOf(ResultView{})
		}
	case err != nil || s.Runs == nil:
	case s.Cells != nil:
		err = errors.New("service: result has both cells and runs")
	case !s.Runs.valid():
		err = errors.New("service: result runs are not a cell list's")
	}
	return s, err
}

// cellRuns is a dense []float64 of N cells as its runs of non-zero cells: run
// r covers cells [Start[r], End[r]), and the runs' values lie end to end in
// Vals. A cell is zero when all of its bits are, so -0, subnormals, NaN and
// ±Inf are kept and expand gives back the dense slice bit for bit. Runs are
// maximal, so a slice with no zero costs its dense size plus one run. The
// fields are exported for the result's JSON form (storedResult).
type cellRuns struct {
	N     int       `json:"n"`
	Start []int32   `json:"start,omitempty"`
	End   []int32   `json:"end,omitempty"`
	Vals  []float64 `json:"vals,omitempty"`
}

// compactCells files cells as runs. One scan of the dense cells counts the
// runs and notes their bounds (on the stack, up to 256 runs), then the stored
// slices are allocated at exactly their size and filled from the run cells.
func compactCells(cells []float64) cellRuns {
	bounds, nonZero := make([]int32, 0, 512), 0
	for s, e := nextRun(cells, 0); s < len(cells); s, e = nextRun(cells, e) {
		bounds = append(bounds, int32(s), int32(e))
		nonZero += e - s
	}
	c := cellRuns{
		N:     len(cells),
		Start: make([]int32, len(bounds)/2),
		End:   make([]int32, len(bounds)/2),
		Vals:  make([]float64, 0, nonZero),
	}
	for r := range c.Start {
		s, e := bounds[2*r], bounds[2*r+1]
		c.Start[r], c.End[r] = s, e
		c.Vals = append(c.Vals, cells[s:e]...)
	}
	return c
}

// nextRun returns the first run of non-zero cells at or after i; start is
// len(cells) when there is none. Zeros are skipped eight at a time, as
// tally.appendNonZero skips them: a tally is mostly zeros.
func nextRun(cells []float64, i int) (start, end int) {
	for rest := cells[i:]; len(rest) >= 8; rest = rest[8:] {
		b := (*[8]float64)(rest)
		if math.Float64bits(b[0])|math.Float64bits(b[1])|math.Float64bits(b[2])|math.Float64bits(b[3])|
			math.Float64bits(b[4])|math.Float64bits(b[5])|math.Float64bits(b[6])|math.Float64bits(b[7]) != 0 {
			break
		}
		i += 8
	}
	for i < len(cells) && math.Float64bits(cells[i]) == 0 {
		i++
	}
	start = i
	for i < len(cells) && math.Float64bits(cells[i]) != 0 {
		i++
	}
	return start, i
}

// valid reports whether c is what compactCells files: N within the int32 run
// bounds, ascending maximal runs inside it, no value +0, and exactly the values
// the runs cover.
func (c *cellRuns) valid() bool {
	if c.N < 0 || c.N > math.MaxInt32 || len(c.Start) != len(c.End) {
		return false
	}
	at, covered := int32(-1), 0
	for r, s := range c.Start {
		if s <= at || c.End[r] <= s || int(c.End[r]) > c.N {
			return false
		}
		at, covered = c.End[r], covered+int(c.End[r]-s)
	}
	return covered == len(c.Vals) && !slices.ContainsFunc(c.Vals, func(f float64) bool { return math.Float64bits(f) == 0 })
}

// expand returns the dense cells: in dst when it has room for them, so the
// ensemble fold reuses one slice across its replicas, else in a new slice.
func (c *cellRuns) expand(dst []float64) []float64 {
	if cap(dst) < c.N {
		dst = make([]float64, c.N)
	} else {
		dst = dst[:c.N]
		clear(dst)
	}
	vals := c.Vals
	for r, s := range c.Start {
		vals = vals[copy(dst[s:c.End[r]], vals):]
	}
	return dst
}

func resultViewOf(res *core.Result) ResultView {
	var phases map[string]float64
	res.Phases.Each(func(name string, d time.Duration) {
		if phases == nil {
			phases = map[string]float64{}
		}
		phases[name] = d.Seconds()
	})
	counters := res.Counter
	return ResultView{
		PhaseTimings:      phases,
		TallyTotal:        res.TallyTotal,
		WallSeconds:       res.Wall.Seconds(),
		WallNS:            res.Wall.Nanoseconds(),
		Events:            res.Counter.TotalEvents(),
		FacetEvents:       res.Counter.FacetEvents,
		CollisionEvents:   res.Counter.CollisionEvents,
		CensusEvents:      res.Counter.CensusEvents,
		Deaths:            res.Counter.Deaths,
		ConservationError: res.Conservation.RelativeError,
		LoadImbalance:     res.LoadImbalance(),
		Cells:             res.Cells,
		Escapes:           res.Counter.Escapes,
		Leakage:           leakageViewOf(res),
		Counters:          &counters,
	}
}

// result is the inverse of resultViewOf for what ParseFiled keeps.
func (v *ResultView) result(cfg core.Config) *core.Result {
	res := &core.Result{
		Config:     cfg,
		TallyTotal: v.TallyTotal,
		Cells:      v.Cells,
	}
	if v.WallNS != 0 {
		res.Wall = time.Duration(v.WallNS)
	} else { // older worker: fall back to the rounded seconds
		res.Wall = time.Duration(v.WallSeconds * float64(time.Second))
	}
	if v.Counters != nil {
		res.Counter = *v.Counters
	} else {
		res.Counter = core.Counters{
			FacetEvents:     v.FacetEvents,
			CollisionEvents: v.CollisionEvents,
			CensusEvents:    v.CensusEvents,
			Deaths:          v.Deaths,
			Escapes:         v.Escapes,
		}
	}
	res.Conservation.RelativeError = v.ConservationError
	if v.Leakage != nil {
		for e := mesh.Edge(0); e < mesh.NumEdges; e++ {
			res.Leakage.Weight[e] = v.Leakage.Weight[e.String()]
			res.Leakage.Energy[e] = v.Leakage.Energy[e.String()]
		}
	}
	return res
}
