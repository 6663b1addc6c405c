package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/stats"
)

// ResultView is the wire representation of a completed run: the quantities
// a client consumes, flattened from core.Result (whose Config carries
// non-serialisable hooks).
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
// it: the core.Result without its cells, and the cells as their runs of
// non-zero values. A 256² csp result deposits in 336 of its 65 536 cells, so
// what an engine remembers grows with what was deposited, not with the mesh.
// Each result is filed once, at its source (fileResult, ParseFiled,
// parseStored), and shared by every job served from it.
type Filed struct {
	// res is the result with Cells nil — or, for a result that had no cells,
	// the very pointer it arrived as.
	res   *core.Result
	cells cellRuns

	// dense is res with its cells expanded, built by the first Result call.
	once  sync.Once
	dense *core.Result
}

// fileResult files res. res is not modified; the caller drops it, and with it
// the dense cells.
func fileResult(res *core.Result) *Filed {
	if len(res.Cells) == 0 {
		return &Filed{res: res}
	}
	r := *res
	r.Cells = nil
	return &Filed{res: &r, cells: compactCells(res.Cells)}
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

// encode returns the bytes of json.Marshal(resultViewOf(f.Result())) without
// building the dense cells.
func (f *Filed) encode() ([]byte, error) {
	return encodeCells(resultViewOf(f.res), &f.cells)
}

// storedResult is a single-run result as the blob tier keeps it: the view as
// served but its cells, and the cells as their runs. Stored so, the reference
// 256² csp result is ≈ 9 KB against 137 KB of wire JSON, 99.5 % of whose
// numbers are zeros.
type storedResult struct {
	plainView
	Runs *cellRuns `json:"runs"`
}

// plainView is ResultView without its UnmarshalJSON.
type plainView ResultView

// stored returns f's blob-tier form, which parseStored reads back.
func (f *Filed) stored() ([]byte, error) {
	return json.Marshal(storedResult{plainView(resultViewOf(f.res)), &f.cells})
}

// parseStored files a result from its blob-tier form; cfg stands in for the
// producing run's config, as in ParseFiled. ok is false for anything else:
// malformed JSON, a document without runs (the wire form an older engine
// stored), runs that compactCells would not have written.
func parseStored(data []byte, cfg core.Config) (f *Filed, ok bool) {
	var s storedResult
	if json.Unmarshal(data, &s) != nil || s.Runs == nil || !s.Runs.valid() {
		return nil, false
	}
	return &Filed{res: (*ResultView)(&s.plainView).result(cfg), cells: *s.Runs}, true
}

// cellRuns is a dense []float64 of N cells as its runs of non-zero cells: run
// r covers cells [Start[r], End[r]), and the runs' values lie end to end in
// Vals. A cell is zero when all of its bits are, so -0, subnormals, NaN and
// ±Inf are kept and expand gives back the dense slice bit for bit. Runs are
// maximal, so a slice with no zero costs its dense size plus one run. The
// fields are exported for the blob tier's JSON (storedResult).
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

// zeroCells is the JSON of a gap of zero cells, copied rather than formatted.
var zeroCells = strings.Repeat(",0", 512)

// appendJSON appends every cell, each after a comma, as encoding/json writes
// it.
func (c *cellRuns) appendJSON(b []byte) []byte {
	at, vals := 0, c.Vals
	for r, s := range c.Start {
		b = appendZeroCells(b, int(s)-at)
		at = int(c.End[r])
		for _, f := range vals[:at-int(s)] {
			b = appendJSONFloat(append(b, ','), f)
		}
		vals = vals[at-int(s):]
	}
	return appendZeroCells(b, c.N-at)
}

func appendZeroCells(b []byte, n int) []byte {
	for n > 0 {
		k := min(n, len(zeroCells)/2)
		b = append(b, zeroCells[:2*k]...)
		n -= k
	}
	return b
}

// encodeResultView returns the bytes of json.Marshal(v). The cells are
// compacted and written by encodeCells, the one cell writer.
func encodeResultView(v ResultView) ([]byte, error) {
	c := compactCells(v.Cells)
	v.Cells = nil
	return encodeCells(v, &c)
}

// encodeCells returns the bytes of json.Marshal(v) with v.Cells the expansion
// of c — 65 200 zeros of a 256² result's 65 536 numbers — written from the
// runs instead of reflected over: a result's bytes cost what was deposited, as
// its tally does. encoding/json encodes the view with a one-zero array in the
// array's place (every field before cells is a number, so the first
// `"cells":[0]` in the document is that one), and the numbers are spliced in
// under encoding/json's own formatting rules. A view without cells, or with a
// cell JSON cannot carry (NaN, ±Inf), goes to encoding/json whole, so the
// bytes and the error there are the standard ones. It is a function and not a
// MarshalJSON method: json.Marshal re-scans and copies what a Marshaler
// returns, which makes a call that is on every job's path to its result cost
// four times as much (BENCH_pr26.json, result_encode).
func encodeCells(v ResultView, c *cellRuns) ([]byte, error) {
	if c.N == 0 {
		return json.Marshal(v)
	}
	for _, f := range c.Vals {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			v.Cells = c.expand(nil)
			return json.Marshal(v)
		}
	}
	const placeholder = `"cells":[0]`
	v.Cells = []float64{0}
	doc, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	at := bytes.Index(doc, []byte(placeholder)) + len(placeholder) - len("[0]")
	out := make([]byte, 0, len(doc)+2*c.N+24*len(c.Vals))
	// The first cell's comma lands on the '[' it then becomes.
	out = c.appendJSON(append(out, doc[:at]...))
	out[at] = '['
	return append(out, doc[at+len("[0"):]...), nil
}

// appendJSONFloat appends a finite f as encoding/json writes a float64: the
// shortest digits that round-trip, in exponent form iff the magnitude is
// non-zero and below 1e-6 or at least 1e21, a two-digit negative exponent
// cut to one (e-09 → e-9). It writes the run values; zero gaps never reach it.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// UnmarshalJSON is decode with the cells expanded: a Go client's read.
func (v *ResultView) UnmarshalJSON(data []byte) error {
	cells, ok, err := v.decode(data)
	if ok {
		v.Cells = cells.expand(nil)
	}
	return err
}

// ParseFiled files a result from the JSON GET /result serves — how a fleet
// coordinator reads a remote one — its cells straight into runs. cfg stands in
// for the producing run's config, which the view does not carry. Phase timings
// and per-worker busy spans describe the producing process and stay behind.
func ParseFiled(data []byte, cfg core.Config) (*Filed, error) {
	var v ResultView
	cells, ok, err := v.decode(data)
	if err != nil {
		return nil, err
	}
	if !ok {
		return fileResult(v.result(cfg)), nil
	}
	return &Filed{res: v.result(cfg), cells: cells}, nil
}

// decode decodes data into v but for the cells array — 65 536 numbers of a
// 256² result, nearly all of its bytes — which it takes off encoding/json
// (three scans of those bytes, reflection per element): the array is found in
// the top-level object and scanned into runs, returned with ok, and
// encoding/json decodes the rest of the document with null in its place.
//
// The fast path commits only when unambiguous: one top-level member folding
// to "cells", a non-empty array of JSON numbers in range, and a rest that
// decodes. Anything else — null, [], a duplicate or escaped key, malformed
// input, bytes after the document — goes to encoding/json whole, so values
// and errors are the standard ones.
func (v *ResultView) decode(data []byte) (cellRuns, bool, error) {
	if start, end, ok := cellsArray(data); ok {
		if cells, ok := parseCells(data[start:end]); ok {
			rest := make([]byte, 0, len(data)-(end-start)+len("null"))
			rest = append(append(append(rest, data[:start]...), "null"...), data[end:]...)
			if json.Unmarshal(rest, (*plainView)(v)) == nil {
				return cells, true, nil
			}
		}
	}
	err := json.Unmarshal(data, (*plainView)(v))
	var typeErr *json.UnmarshalTypeError
	if errors.As(err, &typeErr) {
		// The message names the wire type, as it always has.
		if typeErr.Struct == "plainView" {
			typeErr.Struct = "ResultView"
		}
		if typeErr.Type == reflect.TypeOf(plainView{}) {
			typeErr.Type = reflect.TypeOf(ResultView{})
		}
	}
	return cellRuns{}, false, err
}

// cellsArray locates the value of the one top-level member whose name
// encoding/json would match to the cells field, when that value opens an
// array: data[start:end] runs from its '[' through the first ']' after it,
// which closes the array whenever it holds only numbers (parseCells rejects
// it otherwise). ok is false when there is no such member, more than
// one, or anything the walk does not expect; on well-formed JSON the walk
// tracks strings, escapes and nesting exactly, and what it skips over is left
// in the document for encoding/json to judge.
func cellsArray(data []byte) (start, end int, ok bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return 0, 0, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return 0, 0, false
	}
	for {
		if i == len(data) || data[i] != '"' {
			return 0, 0, false
		}
		keyEnd := skipString(data, i)
		if keyEnd < 0 {
			return 0, 0, false
		}
		key := data[i+1 : keyEnd-1]
		if bytes.IndexByte(key, '\\') >= 0 {
			return 0, 0, false // an escaped name could spell anything
		}
		i = skipSpace(data, keyEnd)
		if i == len(data) || data[i] != ':' {
			return 0, 0, false
		}
		i = skipSpace(data, i+1)
		if bytes.EqualFold(key, []byte("cells")) {
			if ok || i == len(data) || data[i] != '[' {
				return 0, 0, false
			}
			n := bytes.IndexByte(data[i:], ']')
			if n < 0 {
				return 0, 0, false
			}
			start, end, ok = i, i+n+1, true
			i = end
		} else if i = skipValue(data, i); i < 0 {
			return 0, 0, false
		}
		i = skipSpace(data, i)
		if i == len(data) {
			return 0, 0, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return start, end, ok
		default:
			return 0, 0, false
		}
	}
}

// skipString returns the index just past the string whose opening quote is
// at b[i], or -1 if it does not close.
func skipString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return -1
}

// skipValue returns the index just past the JSON value starting at b[i]: a
// string ends at its closing quote, an object or array at its matching
// closer, any other scalar at the next comma or closer of the enclosing
// object. -1 if the input ends first.
func skipValue(b []byte, i int) int {
	depth := 0
	for i < len(b) {
		switch b[i] {
		case '"':
			if i = skipString(b, i); i < 0 || depth == 0 {
				return i
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',':
			if depth == 0 {
				return i
			}
		}
		i++
	}
	return -1
}

// parseCells files a JSON array of one or more numbers, and nothing else, as
// runs; ok is false for any other shape and a number JSON or float64 does not
// allow. Bare zeros, 65 200 of a 256² result's 65 536, are skipped four to a
// word; any other element is parsed by strconv.ParseFloat, as encoding/json
// does, and is a gap when its bits are all zero (0.0, 0e0) as in compactCells.
func parseCells(raw []byte) (c cellRuns, ok bool) {
	const fourZeros = 0x2c302c302c302c30 // "0,0,0,0," read little-endian
	i := 1                               // raw[0] is '['
	for {
		rest := raw[i:]
		for len(rest) >= 8 && binary.LittleEndian.Uint64(rest) == fourZeros {
			rest = rest[8:]
		}
		for len(rest) >= 2 && rest[0] == '0' && rest[1] == ',' {
			rest = rest[2:]
		}
		c.N += (len(raw) - len(rest) - i) / 2
		i = skipSpace(raw, len(raw)-len(rest))
		start := i
		for i < len(raw) && isNumberByte(raw[i]) {
			i++
		}
		tok := raw[start:i]
		if !validNumber(tok) {
			return cellRuns{}, false
		}
		f, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return cellRuns{}, false
		}
		if math.Float64bits(f) != 0 {
			if r := len(c.End) - 1; r >= 0 && int(c.End[r]) == c.N {
				c.End[r]++
			} else {
				c.Start, c.End = append(c.Start, int32(c.N)), append(c.End, int32(c.N+1))
			}
			c.Vals = append(c.Vals, f)
		}
		c.N++
		i = skipSpace(raw, i)
		if i == len(raw) {
			return cellRuns{}, false
		}
		switch raw[i] {
		case ',':
			i++
		case ']':
			return c, i+1 == len(raw)
		default:
			return cellRuns{}, false
		}
	}
}

// validNumber reports whether tok is a number in the JSON grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. strconv.ParseFloat alone
// is laxer (+1, 01, .5, 5.).
func validNumber(tok []byte) bool {
	i := 0
	if i < len(tok) && tok[i] == '-' {
		i++
	}
	digits := func() bool {
		start := i
		for i < len(tok) && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
		return i > start
	}
	switch {
	case i < len(tok) && tok[i] == '0':
		i++
	case !digits():
		return false
	}
	if i < len(tok) && tok[i] == '.' {
		if i++; !digits() {
			return false
		}
	}
	if i < len(tok) && (tok[i] == 'e' || tok[i] == 'E') {
		if i++; i < len(tok) && (tok[i] == '+' || tok[i] == '-') {
			i++
		}
		if !digits() {
			return false
		}
	}
	return i == len(tok)
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

func isNumberByte(c byte) bool {
	return c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
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
