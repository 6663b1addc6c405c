package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/stats"
	"repro/internal/tally"
)

// ResultView is a completed run as a client reads it: the quantities it
// consumes, flattened from core.Result (whose Config carries non-serialisable
// hooks). It is also the result's one JSON form, kept in the blob tier and
// served by GET /result: the members, then the cells as their runs, last. So
// written, the reference 256² csp result is ≈ 9 KB, where its dense cells
// alone were 137 KB, 99.5 % of whose numbers were zeros. Neither the engine
// nor UnmarshalJSON builds the dense mesh; Cells.Dense does.
type ResultView struct {
	TallyTotal  float64 `json:"tally_total"`
	WallSeconds float64 `json:"wall_seconds"`
	// WallNS is the solver wallclock in integer nanoseconds — the exact
	// transport twin of the rounded WallSeconds, so a coordinator
	// reconstructing a remote result loses nothing.
	WallNS            int64   `json:"wall_ns,omitempty"`
	Events            uint64  `json:"events"`
	FacetEvents       uint64  `json:"facet_events"`
	CollisionEvents   uint64  `json:"collision_events"`
	CensusEvents      uint64  `json:"census_events"`
	Deaths            uint64  `json:"deaths"`
	ConservationError float64 `json:"conservation_error"`
	LoadImbalance     float64 `json:"load_imbalance"`
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
	// Cells is the per-cell tally (keep_cells only; otherwise n is 0).
	Cells tally.Runs `json:"runs"`
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
// it: the core.Result, whose cells are their runs of non-zero values, and its
// view as served. A 256² csp result deposits in 336 of its 65 536 cells, so
// what an engine remembers grows with what was deposited, not with the mesh.
// Each result is filed once, at its source (fileResult, ParseFiled), and
// shared by every job served from it.
type Filed struct {
	res *core.Result
	// view is what encode writes: resultViewOf(res) for a result filed here,
	// the view it arrived with for a parsed one. So every tier and hop that
	// serves the result writes the same bytes, the phase timings and load
	// imbalance of the run that produced it included.
	view ResultView

	// wire is the single-run body, built by the first body(nil) call.
	wireOnce sync.Once
	wire     []byte
	wireErr  error
}

// fileResult files res as it arrives; the caller must not modify it after.
func fileResult(res *core.Result) *Filed {
	return &Filed{res: res, view: resultViewOf(res)}
}

// Result returns the filed result. The caller must treat it as immutable.
func (f *Filed) Result() *core.Result { return f.res }

// plainView is ResultView without its UnmarshalJSON.
type plainView ResultView

// body returns f's JSON form and a newline, the body of GET /result, with ens
// the merged statistics of an ensemble job (nil for a single run). A single
// run's form is encoded once, and every caller shares that slice unmodified.
func (f *Filed) body(ens *EnsembleView) ([]byte, error) {
	marshal := func() ([]byte, error) {
		v := f.view
		v.Ensemble = ens
		data, err := json.Marshal(v)
		return slices.Concat(data, []byte{'\n'}), err // a slice of exactly its size
	}
	if ens != nil {
		return marshal()
	}
	f.wireOnce.Do(func() { f.wire, f.wireErr = marshal() })
	return f.wire, f.wireErr
}

// encode is body without its newline: a single run's blob-tier bytes.
func (f *Filed) encode(ens *EnsembleView) ([]byte, error) {
	data, err := f.body(ens)
	return data[:len(data)-1], err
}

// ParseFiled files a result from its JSON form: a blob-tier entry, or the body
// of GET /result as a fleet coordinator fetches it. cfg stands in for the
// producing run's config, which the form does not carry. The core.Result
// leaves out the phase timings and per-worker busy spans, which describe the
// producing process; the view it serves keeps them, and drops an ensemble
// block, which the serving job supplies. It fails on anything encode does not
// write: what decodeResult refuses, a document without counters, or runs of
// other than cfg's cells when cfg has a mesh.
func ParseFiled(data []byte, cfg core.Config) (*Filed, error) {
	v, err := decodeResult(data)
	switch {
	case err == nil && v.Counters == nil:
		err = errors.New("service: result has no counters")
	case err == nil && v.Cells.N != 0 && cfg.NX*cfg.NY > 0 && v.Cells.N != cfg.NX*cfg.NY:
		err = fmt.Errorf("service: result runs cover %d cells, not the %dx%d mesh's", v.Cells.N, cfg.NX, cfg.NY)
	}
	if err != nil {
		return nil, err
	}
	v.Ensemble = nil
	return &Filed{res: v.result(cfg), view: v}, nil
}

// UnmarshalJSON reads a result in its JSON form, so a Go client decodes GET
// /result with encoding/json. The cells stay runs: what it allocates grows
// with the document, not with the n it declares.
func (v *ResultView) UnmarshalJSON(data []byte) error {
	r, err := decodeResult(data)
	if err == nil {
		*v = r
	}
	return err
}

// decodeResult decodes a result document as encoding/json does, and refuses
// runs that are not a cell list's (validRuns) and dense cells: no engine has
// written a "cells" member since results travel as runs, so one is an error,
// not a mesh silently dropped. The form encode writes takes decodeFiled's one
// pass over its runs; any other form, and every refusal, is the whole
// document's decode.
func decodeResult(data []byte) (ResultView, error) {
	if v, ok := decodeFiled(data); ok {
		return v, nil
	}
	v, err := decodeMembers(data)
	if err == nil && !validRuns(&v.Cells) {
		err = errors.New("service: result runs are not a cell list's")
	}
	return v, err
}

// errDenseCells refuses a document whose cells are a dense mesh.
var errDenseCells = errors.New("service: result has dense cells; only runs are read")

// decodeMembers decodes data with encoding/json, refusing a "cells" member in
// any spelling encoding/json matches. Its errors are encoding/json's on the
// wire type.
func decodeMembers(data []byte) (v ResultView, err error) {
	var doc struct {
		plainView
		Dense json.RawMessage `json:"cells"`
	}
	switch err = json.Unmarshal(data, &doc); {
	case err != nil:
		type ResultView plainView // decoded again, for errors that name it
		err = json.Unmarshal(data, new(ResultView))
	case doc.Dense != nil:
		err = errDenseCells
	default:
		v = ResultView(doc.plainView)
	}
	return v, err
}

// heads lends decodeFiled the buffer it closes the members in, so the one pass
// allocates nothing the whole document's decode does not.
var heads = sync.Pool{New: func() any { return new([]byte) }}

// decodeFiled reads a document of the form encode writes — members, then
// `,"runs":{…}` last — with encoding/json reading only the members before the
// runs and parseRuns the runs. ok is false for any other form and for what
// decodeResult refuses. The cut is the first `,"runs":{`, which encode writes
// nowhere else: a string it writes has every quote escaped. The members must
// be an object of at least one member, and parseRuns reads the runs over what
// the members set of them, so no folded, escaped or repeated name reads
// differently from the whole document's decode; parseRuns accepts only JSON,
// so a document whose two parts read is valid JSON.
func decodeFiled(data []byte) (v ResultView, ok bool) {
	cut := bytes.Index(data, []byte(`,"runs":{`))
	if cut < 0 {
		return v, false
	}
	head := bytes.TrimRight(data[:cut], " \t\r\n")
	runs, ok := bytes.CutSuffix(bytes.TrimRight(data[cut+len(`,"runs":`):], " \t\r\n"), []byte{'}'})
	if !ok || len(head) == 0 || head[len(head)-1] == '{' {
		return v, false
	}
	buf := heads.Get().(*[]byte)
	*buf = append(append((*buf)[:0], data[:cut]...), '}')
	v, err := decodeMembers(*buf)
	if heads.Put(buf); err != nil {
		return ResultView{}, false
	}
	if v.Cells, ok = parseRuns(runs, v.Cells); !ok || !validRuns(&v.Cells) {
		return ResultView{}, false
	}
	return v, true
}

// parseRuns reads the runs object as encode writes it with strconv — n, start,
// end and vals in that order, each at most once, without space — over r,
// leaving absent members as encoding/json does; ok is false for any other
// form. data need not be valid JSON (decodeFiled hands it unchecked): a number
// array ends at its first ']', n at the ',' or '}' after it, and every number
// must be JSON's.
func parseRuns(data []byte, r tally.Runs) (_ tally.Runs, ok bool) {
	rest, ok := bytes.CutPrefix(data, []byte{'{'})
	sep := ""
	for m, name := range []string{`"n":`, `"start":[`, `"end":[`, `"vals":[`} {
		after, found := bytes.CutPrefix(rest, []byte(sep+name))
		if !ok || !found {
			continue
		}
		stop := bytes.IndexByte(after, ']')
		if m == 0 { // n ends where the object or the next member begins
			stop = bytes.IndexAny(after, ",}")
		}
		if stop < 0 {
			return r, false
		}
		list := after[:stop]
		switch rest, sep = after[stop+min(m, 1):], ","; m {
		case 0:
			n, err := strconv.ParseInt(string(list), 10, 0)
			r.N, ok = int(n), err == nil && jsonNumber(list)
		case 1:
			r.Start, ok = numbers(list, parseInt32)
		case 2:
			r.End, ok = numbers(list, parseInt32)
		case 3:
			r.Vals, ok = numbers(list, parseFloat)
		}
	}
	return r, ok && string(rest) == "}"
}

// numbers reads a comma-separated list into a slice of exactly its length
// (empty, not nil, as encoding/json decodes []); ok is false when parse
// rejects one, as parseInt32 does a fraction or exponent, like encoding/json.
func numbers[T int32 | float64](list []byte, parse func([]byte) (T, bool)) (_ []T, ok bool) {
	out := make([]T, 0, bytes.Count(list, []byte{','})+1)
	for more := len(list) > 0; more; {
		var num []byte
		num, list, more = bytes.Cut(list, []byte{','})
		v, ok := parse(num)
		if !ok {
			return nil, false
		}
		out = append(out, v)
	}
	return out, true
}

func parseInt32(b []byte) (int32, bool) {
	v, err := strconv.ParseInt(string(b), 10, 32)
	return int32(v), err == nil && jsonNumber(b)
}

func parseFloat(b []byte) (float64, bool) {
	v, err := strconv.ParseFloat(string(b), 64)
	return v, err == nil && jsonNumber(b)
}

// jsonNumber reports whether b is a number in JSON's grammar, which strconv
// widens: a sign, leading zeros, a bare point, hex, NaN and Inf.
func jsonNumber(b []byte) bool {
	b = bytes.TrimPrefix(b, []byte{'-'})
	i := digits(b, 0)
	ok := i == 1 || (i > 1 && b[0] != '0')
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		ok, i = ok && j > i+1, j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		ok, i = ok && j > i, j
	}
	return ok && i == len(b)
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// validRuns reports whether c is what a result files: N at most a mesh's
// cells, ascending maximal runs inside it, no value +0, and exactly the values
// the runs cover.
func validRuns(c *tally.Runs) bool {
	if c.N < 0 || c.N > mesh.MaxCells || len(c.Start) != len(c.End) {
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

// result is the inverse of resultViewOf for what ParseFiled keeps; v carries
// counters, as every view resultViewOf writes does.
func (v *ResultView) result(cfg core.Config) *core.Result {
	res := &core.Result{
		Config:     cfg,
		TallyTotal: v.TallyTotal,
		Cells:      v.Cells,
		Wall:       time.Duration(v.WallNS),
		Counter:    *v.Counters,
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
