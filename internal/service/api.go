package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"reflect"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/scene"
	"repro/internal/stats"
	"repro/internal/tally"
	"repro/internal/telemetry"
)

// Spec is the wire-format run request: the JSON mirror of core.Config with
// string-named enums and problem-relative defaults. Zero-valued fields
// inherit the problem default, so {"problem":"csp"} is a complete request.
// Scene, when present, is a full inline problem description and makes
// Problem optional; two submissions with physically equivalent scenes share
// one fingerprint, so they hit the same cache entry and checkpoint.
type Spec struct {
	Problem      string       `json:"problem,omitempty"`
	Scene        *scene.Scene `json:"scene,omitempty"`
	Paper        bool         `json:"paper,omitempty"` // full paper scale baseline
	NX           int          `json:"nx,omitempty"`
	NY           int          `json:"ny,omitempty"`
	Particles    int          `json:"particles,omitempty"`
	Timestep     float64      `json:"timestep,omitempty"`
	Steps        int          `json:"steps,omitempty"`
	Seed         *uint64      `json:"seed,omitempty"` // pointer: 0 is a valid seed
	Threads      int          `json:"threads,omitempty"`
	Scheme       string       `json:"scheme,omitempty"`
	Schedule     string       `json:"schedule,omitempty"`
	Chunk        int          `json:"chunk,omitempty"`
	Layout       string       `json:"layout,omitempty"`
	Tally        string       `json:"tally,omitempty"`
	MergePerStep bool         `json:"merge_per_step,omitempty"`
	XSPoints     int          `json:"xs_points,omitempty"`
	WeightCutoff float64      `json:"weight_cutoff,omitempty"`
	EnergyCutoff float64      `json:"energy_cutoff,omitempty"`
	KeepCells    bool         `json:"keep_cells,omitempty"`
	KeepBank     bool         `json:"keep_bank,omitempty"`
	Source       *SourceSpec  `json:"source,omitempty"`
	// Replicas > 1 turns the submission into an ensemble job: the
	// replicas fan out across the worker pool and the result carries
	// merged per-cell uncertainty statistics.
	Replicas int `json:"replicas,omitempty"`
	// Replica is this run's 0-based index within an ensemble — the RNG
	// stream-family offset. Set by a fleet coordinator transporting an
	// ensemble child to a remote worker; plain clients leave it 0.
	Replica int `json:"replica,omitempty"`
	// RetainSnapshot keeps the job's latest checkpoint in memory for
	// GET /v1/jobs/{id}/snapshot — how a coordinator pulls the checkpoint
	// it would reschedule this shard from. Checkpoints are taken at the
	// first step boundary and then by measured cost, not at every step; the
	// "checkpoint" field of each step event names the boundary served.
	RetainSnapshot bool `json:"retain_snapshot,omitempty"`
	// Snapshot (base64 in JSON) seeds the run from a checkpoint: the
	// solver restores it and continues from its recorded step boundary —
	// how a rescheduled shard resumes on a new worker.
	Snapshot []byte `json:"snapshot,omitempty"`
	// WeightWindow enables weight-based population control (roulette +
	// splitting) for the run.
	WeightWindow *WeightWindowSpec `json:"weight_window,omitempty"`
}

// WeightWindowSpec is the wire form of core.WeightWindow; zero fields take
// the solver defaults (target 1, ratio 4, split cap 8).
type WeightWindowSpec struct {
	Target   float64 `json:"target,omitempty"`
	Ratio    float64 `json:"ratio,omitempty"`
	SplitMax int     `json:"split_max,omitempty"`
}

// SourceSpec overrides the problem's particle birth region.
type SourceSpec struct {
	X0 float64 `json:"x0"`
	X1 float64 `json:"x1"`
	Y0 float64 `json:"y0"`
	Y1 float64 `json:"y1"`
}

// Config resolves the spec to a validated-shape core.Config (final
// validation happens at Submit; a zero thread count is resolved by the
// engine that solves the job). A spec names a problem preset, carries an
// inline scene, or both — in which case the scene wins, as in core.Config.
func (s Spec) Config() (core.Config, error) {
	var p mesh.Problem
	var err error
	if s.Problem != "" {
		if p, err = mesh.ParseProblem(s.Problem); err != nil {
			return core.Config{}, err
		}
	} else if s.Scene == nil {
		return core.Config{}, fmt.Errorf("service: spec names neither a problem nor a scene")
	}
	if s.Scene != nil {
		if err := s.Scene.Validate(); err != nil {
			return core.Config{}, err
		}
	}
	// Zero means "problem default", so a negative override is always a
	// client error rather than something to fall back from silently.
	for name, v := range map[string]int{
		"nx": s.NX, "ny": s.NY, "particles": s.Particles, "steps": s.Steps,
		"threads": s.Threads, "chunk": s.Chunk, "xs_points": s.XSPoints,
	} {
		if v < 0 {
			return core.Config{}, fmt.Errorf("service: negative %s %d", name, v)
		}
	}
	if s.Timestep < 0 || s.WeightCutoff < 0 || s.EnergyCutoff < 0 {
		return core.Config{}, fmt.Errorf("service: negative physics parameter")
	}
	cfg := core.Default(p)
	if s.Paper {
		cfg = core.Paper(p)
	}
	cfg.Scene = s.Scene
	if s.NX > 0 {
		cfg.NX = s.NX
		cfg.NY = s.NX
	}
	if s.NY > 0 {
		cfg.NY = s.NY
	}
	if s.Particles > 0 {
		cfg.Particles = s.Particles
	}
	if s.Timestep > 0 {
		cfg.Timestep = s.Timestep
	}
	if s.Steps > 0 {
		cfg.Steps = s.Steps
	}
	if s.Seed != nil {
		cfg.Seed = *s.Seed
	}
	cfg.Threads = s.Threads
	if s.Scheme != "" {
		if cfg.Scheme, err = core.ParseScheme(s.Scheme); err != nil {
			return core.Config{}, err
		}
	}
	if s.Schedule != "" {
		kind, err := core.ParseSchedule(s.Schedule)
		if err != nil {
			return core.Config{}, err
		}
		cfg.Schedule = core.Schedule{Kind: kind, Chunk: s.Chunk}
	} else if s.Chunk > 0 {
		cfg.Schedule.Chunk = s.Chunk
	}
	if s.Layout != "" {
		if cfg.Layout, err = particle.ParseLayout(s.Layout); err != nil {
			return core.Config{}, err
		}
	}
	if s.Tally != "" {
		if cfg.Tally, err = tally.ParseMode(s.Tally); err != nil {
			return core.Config{}, err
		}
	}
	cfg.MergePerStep = s.MergePerStep
	if s.XSPoints > 0 {
		cfg.XSPoints = s.XSPoints
	}
	if s.WeightCutoff > 0 {
		cfg.WeightCutoff = s.WeightCutoff
	}
	if s.EnergyCutoff > 0 {
		cfg.EnergyCutoff = s.EnergyCutoff
	}
	cfg.KeepCells = s.KeepCells
	cfg.KeepBank = s.KeepBank
	if s.Replicas < 0 {
		return core.Config{}, fmt.Errorf("service: negative replicas %d", s.Replicas)
	}
	cfg.Replicas = s.Replicas
	if s.Replica < 0 {
		return core.Config{}, fmt.Errorf("service: negative replica index %d", s.Replica)
	}
	cfg.Replica = s.Replica
	if s.WeightWindow != nil {
		cfg.WeightWindow = core.WeightWindow{
			Enabled:  true,
			Target:   s.WeightWindow.Target,
			Ratio:    s.WeightWindow.Ratio,
			SplitMax: s.WeightWindow.SplitMax,
		}
	}
	if s.Source != nil {
		cfg.CustomSource = &mesh.SourceBox{
			X0: s.Source.X0, X1: s.Source.X1,
			Y0: s.Source.Y0, Y1: s.Source.Y1,
		}
	}
	return cfg, nil
}

// SpecOf inverts Config: the wire Spec that, resolved through Spec.Config
// and Validate, reproduces cfg exactly — same fingerprint, same physics.
// This is the fleet coordinator's transport encoding for dispatching a
// shard to a remote worker: a thread count the client left unset stays off
// the wire, so the worker applies its own budget. It requires a validated
// config (Validate resolves the scene and fills every default) and fails on
// the one thing no wire format can carry: a CustomDensity hook.
func SpecOf(cfg core.Config) (Spec, error) {
	if cfg.CustomDensity != nil {
		return Spec{}, fmt.Errorf("service: config with a CustomDensity hook cannot be transported")
	}
	if cfg.Scene == nil {
		return Spec{}, fmt.Errorf("service: config not validated (nil scene)")
	}
	seed := cfg.Seed
	s := Spec{
		Scene:        cfg.Scene,
		NX:           cfg.NX,
		NY:           cfg.NY,
		Particles:    cfg.Particles,
		Timestep:     cfg.Timestep,
		Steps:        cfg.Steps,
		Seed:         &seed,
		Threads:      cfg.Threads,
		Scheme:       cfg.Scheme.String(),
		Schedule:     cfg.Schedule.Kind.String(),
		Chunk:        cfg.Schedule.Chunk,
		Layout:       cfg.Layout.String(),
		Tally:        cfg.Tally.String(),
		MergePerStep: cfg.MergePerStep,
		XSPoints:     cfg.XSPoints,
		WeightCutoff: cfg.WeightCutoff,
		EnergyCutoff: cfg.EnergyCutoff,
		KeepCells:    cfg.KeepCells,
		KeepBank:     cfg.KeepBank,
		Replicas:     cfg.Replicas,
		Replica:      cfg.Replica,
	}
	if cfg.WeightWindow.Enabled {
		s.WeightWindow = &WeightWindowSpec{
			Target:   cfg.WeightWindow.Target,
			Ratio:    cfg.WeightWindow.Ratio,
			SplitMax: cfg.WeightWindow.SplitMax,
		}
	}
	if cfg.CustomSource != nil {
		s.Source = &SourceSpec{
			X0: cfg.CustomSource.X0, X1: cfg.CustomSource.X1,
			Y0: cfg.CustomSource.Y0, Y1: cfg.CustomSource.Y1,
		}
	}
	return s, nil
}

// JobView is the wire representation of a job snapshot.
type JobView struct {
	ID       string  `json:"id"`
	State    State   `json:"state"`
	Cached   bool    `json:"cached,omitempty"`
	Progress float64 `json:"progress"`
	Step     int     `json:"step"`
	Steps    int     `json:"steps"`
	// StepsDone counts the per-timestep results recorded so far
	// (streamed as SSE "step" events).
	StepsDone int `json:"steps_done,omitempty"`
	// Replicas is the ensemble width of an ensemble job; ReplicasDone
	// counts the replicas merged so far (streamed as SSE "replica"
	// events). Both absent for plain jobs.
	Replicas     int `json:"replicas,omitempty"`
	ReplicasDone int `json:"replicas_done,omitempty"`
	// ResumedFrom, when present, is the checkpointed step boundary the
	// solver resumed at instead of re-running from scratch.
	ResumedFrom *int `json:"resumed_from,omitempty"`
	// AssignedWorker names the fleet worker the job last ran on, and
	// Reschedules counts how many times its shard was reassigned after a
	// lease expiry. Both absent outside a fleet coordinator.
	AssignedWorker string `json:"assigned_worker,omitempty"`
	Reschedules    int    `json:"reschedules,omitempty"`
	// Warnings lists non-fatal degradations the job survived — failed
	// checkpoint writes, fleet fallback to local execution.
	Warnings  []string   `json:"warnings,omitempty"`
	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
}

func viewOf(j *Job) JobView {
	st := j.Status()
	v := JobView{
		ID:           st.ID,
		State:        st.State,
		Cached:       st.Cached,
		Progress:     st.Progress.Fraction(),
		Step:         st.Progress.Step,
		Steps:        st.Progress.Steps,
		StepsDone:    st.StepsDone,
		Replicas:     st.Replicas,
		ReplicasDone: st.ReplicasDone,
		Submitted:    st.Submitted,

		AssignedWorker: st.Worker,
		Reschedules:    st.Reschedules,
		Warnings:       st.Warnings,
	}
	if st.ResumedFrom >= 0 {
		r := st.ResumedFrom
		v.ResumedFrom = &r
	}
	if st.Err != nil {
		v.Error = st.Err.Error()
	}
	if !st.Started.IsZero() {
		t := st.Started
		v.Started = &t
	}
	if !st.Finished.IsZero() {
		t := st.Finished
		v.Finished = &t
	}
	return v
}

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

// encodeResultView returns the bytes of json.Marshal(v) with the cells array
// — 65 200 zeros of a 256² result's 65 536 numbers — appended by a loop
// instead of reflected over: a result's bytes cost what was deposited, as its
// tally does. encoding/json encodes the view with a one-zero array in the
// array's place (every field before cells is a number, so the first
// `"cells":[0]` in the document is that one), and the numbers are spliced in
// under encoding/json's own formatting rules. A view without cells, or with a
// cell JSON cannot carry (NaN, ±Inf), goes to encoding/json whole, so the
// bytes and the error there are the standard ones. It is a function and not a
// MarshalJSON method: json.Marshal re-scans and copies what a Marshaler
// returns, which makes a call that is on every job's path to its result cost
// four times as much (BENCH_pr26.json, result_encode).
func encodeResultView(v ResultView) ([]byte, error) {
	cells, nonZero := v.Cells, 0
	if len(cells) == 0 {
		return json.Marshal(v)
	}
	for _, f := range cells {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return json.Marshal(v)
		}
		if math.Float64bits(f) != 0 {
			nonZero++
		}
	}
	const placeholder = `"cells":[0]`
	v.Cells = []float64{0}
	doc, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	at := bytes.Index(doc, []byte(placeholder)) + len(placeholder) - len("0]")
	out := make([]byte, 0, len(doc)+2*len(cells)+24*nonZero)
	out = append(out, doc[:at]...)
	for i, f := range cells {
		if i > 0 {
			out = append(out, ',')
		}
		out = appendJSONFloat(out, f)
	}
	return append(out, doc[at+1:]...), nil
}

// appendJSONFloat appends a finite f as encoding/json writes a float64: the
// shortest digits that round-trip, in exponent form iff the magnitude is
// non-zero and below 1e-6 or at least 1e21, a two-digit negative exponent
// cut to one (e-09 → e-9). Positive zero — nearly every cell — skips the
// formatter; negative zero is "-0" and does not.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.Float64bits(f) == 0 {
		return append(b, '0')
	}
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

// UnmarshalJSON decodes a ResultView with the cells array — 65 536 numbers
// of a 256² result, nearly all of a view's bytes — taken off encoding/json,
// which scans those bytes three times and parses each element through
// reflection. The array is located in the top-level object, its numbers go
// straight to strconv.ParseFloat (what encoding/json calls for each one, so
// every value is the same bits), and encoding/json decodes the rest of the
// document with null in the array's place. A coordinator pays this decode for
// every remote result and an engine for every blob-tier hit.
//
// The fast path commits only when all of it is unambiguous: exactly one
// top-level member folds to "cells", its value is a non-empty array of
// well-formed JSON numbers in range, and the remaining document decodes
// without error. Anything else — null, [], a string element, a duplicate or
// escaped key, malformed input — is decoded by encoding/json alone, so values
// and errors there are exactly the standard ones.
func (v *ResultView) UnmarshalJSON(data []byte) error {
	type plain ResultView // the same fields without this method
	if start, end, ok := cellsArray(data); ok {
		if cells, ok := parseNumberArray(data[start:end]); ok {
			rest := make([]byte, 0, len(data)-(end-start)+len("null"))
			rest = append(append(append(rest, data[:start]...), "null"...), data[end:]...)
			if json.Unmarshal(rest, (*plain)(v)) == nil {
				v.Cells = cells
				return nil
			}
		}
	}
	err := json.Unmarshal(data, (*plain)(v))
	var typeErr *json.UnmarshalTypeError
	if errors.As(err, &typeErr) {
		// The message names the wire type, as it always has.
		if typeErr.Struct == "plain" {
			typeErr.Struct = "ResultView"
		}
		if typeErr.Type == reflect.TypeOf(plain{}) {
			typeErr.Type = reflect.TypeOf(ResultView{})
		}
	}
	return err
}

// cellsArray locates the value of the one top-level member whose name
// encoding/json would match to the cells field, when that value opens an
// array: data[start:end] runs from its '[' through the first ']' after it,
// which closes the array whenever it holds only numbers (parseNumberArray
// rejects it otherwise). ok is false when there is no such member, more than
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

// parseNumberArray parses a JSON array holding at least one element and
// nothing but numbers; ok is false for every other shape, for a number that
// breaks the JSON grammar, and for one float64 cannot hold.
func parseNumberArray(raw []byte) (vals []float64, ok bool) {
	// raw[0] is '['. One number per comma is the exact count for an array
	// of numbers.
	vals = make([]float64, 0, bytes.Count(raw, []byte{','})+1)
	i := 1
	for {
		i = skipSpace(raw, i)
		start := i
		for i < len(raw) && isNumberByte(raw[i]) {
			i++
		}
		tok := raw[start:i]
		if len(tok) == 1 && tok[0] == '0' {
			vals = append(vals, 0) // most of a tally
		} else {
			if !validNumber(tok) {
				return nil, false
			}
			f, err := strconv.ParseFloat(string(tok), 64)
			if err != nil {
				return nil, false
			}
			vals = append(vals, f)
		}
		i = skipSpace(raw, i)
		if i == len(raw) {
			return nil, false
		}
		switch raw[i] {
		case ',':
			i++
		case ']':
			return vals, i+1 == len(raw)
		default:
			return nil, false
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

// Result reconstructs the core.Result a remote worker computed or the blob
// tier stored — the inverse of resultViewOf. cfg is the caller's own config
// for the job, standing in for the producing run's (the view carries none).
// Lossless for everything the ensemble merger and the result API consume:
// tally, cells, integer-nanosecond wallclock, the full counter vector,
// conservation error and per-edge leakage. Phase timings and per-worker busy
// spans stay behind; they describe the remote process, not this one.
func (v ResultView) Result(cfg core.Config) *core.Result {
	res := &core.Result{
		Config:     cfg,
		TallyTotal: v.TallyTotal,
		Cells:      v.Cells,
	}
	if v.WallNS > 0 {
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

// Server exposes an engine over HTTP/JSON:
//
//	POST   /v1/jobs            submit a Spec; 202 (queued) or 200 (cache hit)
//	POST   /v1/batch           submit N Specs through one worker; per-item statuses
//	GET    /v1/jobs            list jobs
//	GET    /v1/jobs/{id}       job status
//	GET    /v1/jobs/{id}/result  result; blocks when ?wait=true
//	GET    /v1/jobs/{id}/steps   per-timestep results recorded so far
//	GET    /v1/jobs/{id}/replicas  per-replica results of an ensemble job
//	GET    /v1/jobs/{id}/stream  server-sent progress + per-step + per-replica events
//	GET    /v1/jobs/{id}/snapshot  latest retained checkpoint (retain_snapshot runs)
//	GET    /v1/jobs/{id}/trace   per-step phase spans as Chrome trace-event JSON
//	DELETE /v1/jobs/{id}       cancel
//	GET    /v1/stats           engine counters
//	GET    /metrics            Prometheus text exposition
//	GET    /healthz            liveness
//	GET    /debug/pprof/*      runtime profiles (ServerOptions.Pprof only)
//
// Every request passes through the observe middleware: a correlation id
// (honouring inbound X-Request-Id), one structured access-log line, and
// the http_requests metric.
type Server struct {
	engine    *Engine
	mux       *http.ServeMux
	handler   http.Handler
	log       *slog.Logger
	heartbeat time.Duration
	auth      *Auth
	maxBody   int64
}

// ServerOptions tunes the HTTP layer.
type ServerOptions struct {
	// Logger receives the structured access and error logs; nil discards
	// them (library default — cmd/neutral-serve always passes one).
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiles expose internals, so operators opt in per process.
	Pprof bool
	// Heartbeat is the SSE keepalive-comment interval; 0 means 15s.
	Heartbeat time.Duration
	// Mounts adds extra handlers to the server mux by pattern — how the
	// fleet coordinator hangs its control plane (/v1/fleet/...) off the
	// job API. Mounted handlers pass through the same observe and
	// authentication middleware (request id, access log, http_requests
	// metric, bearer-token tenancy) as built-in routes.
	Mounts map[string]http.Handler
	// Auth, when non-nil, requires a bearer token on every request except
	// /healthz and /metrics, and enforces per-tenant rate limits on the
	// job-creating endpoints. Nil serves every request as the anonymous
	// tenant.
	Auth *Auth
	// MaxBodyBytes caps request bodies on the decoding endpoints
	// (submit, batch, and the mounted fleet control plane); oversized
	// requests are answered 413. 0 means 32 MiB — roomy enough for a
	// seeded resume snapshot, small enough to stop an accidental or
	// hostile multi-gigabyte POST from exhausting memory.
	MaxBodyBytes int64
}

// DefaultMaxBodyBytes is the request-body cap applied when
// ServerOptions.MaxBodyBytes is zero.
const DefaultMaxBodyBytes = 32 << 20

// NewServer wires the engine's handlers onto a fresh mux with default
// options (discarded logs, no pprof).
func NewServer(e *Engine) *Server { return NewServerWith(e, ServerOptions{}) }

// NewServerWith is NewServer with explicit HTTP-layer options.
func NewServerWith(e *Engine, opts ServerOptions) *Server {
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	hb := opts.Heartbeat
	if hb <= 0 {
		hb = 15 * time.Second
	}
	maxBody := opts.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	s := &Server{
		engine:    e,
		mux:       http.NewServeMux(),
		log:       log,
		heartbeat: hb,
		auth:      opts.Auth,
		maxBody:   maxBody,
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/jobs/{id}/steps", s.handleSteps)
	s.mux.HandleFunc("GET /v1/jobs/{id}/replicas", s.handleReplicas)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	for pattern, h := range opts.Mounts {
		s.mux.Handle(pattern, h)
	}
	if opts.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.handler = s.observe(s.withAuth(s.mux))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError reports a request failure. Client errors (4xx) and the
// deliberate backpressure signals (queue full, engine closing) carry their
// message to the caller; any other 5xx is logged in full via slog and
// answered with a generic message plus the request id, so internal error
// strings never leak to clients while operators can still correlate.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, code int, err error) {
	// Every shed response tells the client when to come back: 429s usually
	// arrive with an exact token-refill Retry-After already set (admit);
	// anything else — queue-full and shutdown 503s included — gets the
	// engine's queue-drain estimate. Retryable clients (fleet/retry honours
	// Retry-After) then pace themselves instead of hammering.
	if (code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable) &&
		w.Header().Get("Retry-After") == "" {
		setRetryAfter(w, s.engine.ShedDelay())
	}
	if code >= 500 && !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrClosed) {
		id := RequestID(r.Context())
		s.log.LogAttrs(r.Context(), slog.LevelError, "internal error",
			slog.String("request_id", id),
			slog.Int("status", code),
			slog.String("error", err.Error()))
		writeJSON(w, code, map[string]string{
			"error":      "internal error",
			"request_id": id,
		})
		return
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// applyDefaultScene fills a submission that names neither a problem nor an
// inline scene with the engine's default scene, when one is configured.
func (s *Server) applyDefaultScene(spec *Spec) {
	if spec.Problem == "" && spec.Scene == nil {
		spec.Scene = s.engine.DefaultScene()
	}
}

// decodeBody decodes a JSON request body into v under the server's body cap,
// answering 413 when the cap is hit and 400 on malformed JSON. Reports
// whether the request was already answered.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, r, http.StatusRequestEntityTooLarge,
				fmt.Errorf("decode %s: body exceeds %d bytes", what, tooBig.Limit))
			return false
		}
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("decode %s: %w", what, err))
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if !s.decodeBody(w, r, "spec", &spec) {
		return
	}
	if !s.admit(w, r, 1) {
		return
	}
	s.applyDefaultScene(&spec)
	cfg, err := spec.Config()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	j, err := s.engine.SubmitWith(cfg, SubmitOptions{
		Snapshot:       spec.Snapshot,
		RetainSnapshot: spec.RetainSnapshot,
		Tenant:         TenantName(r.Context()),
	})
	switch {
	case errors.Is(err, ErrQueueFull):
		s.engine.metrics.tenantShed.With(TenantName(r.Context()), "queue").Inc()
		s.writeError(w, r, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrClosed):
		s.writeError(w, r, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	v := viewOf(j)
	annotate(r,
		slog.String("job_id", j.ID()),
		slog.String("fingerprint", j.key),
		slog.String("job_state", string(v.State)))
	if v.State.Terminal() {
		writeJSON(w, http.StatusOK, v) // served from cache
	} else {
		writeJSON(w, http.StatusAccepted, v)
	}
}

// BatchRequest is the wire format of POST /v1/batch.
type BatchRequest struct {
	Specs []Spec `json:"specs"`
}

// BatchItemView is one per-item admission outcome: an accepted item
// carries its job view, a rejected one only its error, with an explicit
// discriminator so clients never have to interpret a zero-valued job.
type BatchItemView struct {
	Accepted bool     `json:"accepted"`
	Error    string   `json:"error,omitempty"`
	Job      *JobView `json:"job,omitempty"`
}

// BatchResponse reports per-item admission outcomes; the batch as a whole
// is never failed by one bad item.
type BatchResponse struct {
	Items []BatchItemView `json:"items"`
}

// maxBatchSpecs bounds one batch request; larger sweeps should be split so
// admission control (the queue bound) stays meaningful.
const maxBatchSpecs = 1024

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decodeBody(w, r, "batch", &req) {
		return
	}
	if len(req.Specs) == 0 {
		s.writeError(w, r, http.StatusBadRequest, errors.New("service: empty batch"))
		return
	}
	if len(req.Specs) > maxBatchSpecs {
		s.writeError(w, r, http.StatusBadRequest,
			fmt.Errorf("service: batch of %d specs exceeds limit %d", len(req.Specs), maxBatchSpecs))
		return
	}
	// A batch spends one admission token per spec — otherwise batching
	// would be a rate-limit bypass.
	if !s.admit(w, r, len(req.Specs)) {
		return
	}

	// Resolve specs first so config errors surface per item while every
	// resolvable config still reaches the engine as one batch.
	cfgs := make([]core.Config, 0, len(req.Specs))
	cfgIdx := make([]int, 0, len(req.Specs))
	resp := BatchResponse{Items: make([]BatchItemView, len(req.Specs))}
	for i, spec := range req.Specs {
		s.applyDefaultScene(&spec)
		cfg, err := spec.Config()
		if err != nil {
			resp.Items[i].Error = err.Error()
			continue
		}
		cfgs = append(cfgs, cfg)
		cfgIdx = append(cfgIdx, i)
	}
	for k, item := range s.engine.SubmitBatchAs(TenantName(r.Context()), cfgs) {
		i := cfgIdx[k]
		if item.Err != nil {
			resp.Items[i].Error = item.Err.Error()
			continue
		}
		v := viewOf(item.Job)
		resp.Items[i] = BatchItemView{Accepted: true, Job: &v}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSteps(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Steps())
	}
}

func (s *Server) handleReplicas(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Replicas())
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.engine.Jobs()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = viewOf(j)
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, err := s.engine.Job(r.PathValue("id"))
	if err != nil {
		s.writeError(w, r, http.StatusNotFound, err)
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, viewOf(j))
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("wait") == "true" {
		if err := j.Wait(r.Context()); err != nil {
			s.writeError(w, r, http.StatusRequestTimeout, err)
			return
		}
	}
	res, err := j.Result()
	switch {
	case errors.Is(err, ErrNotFinished):
		writeJSON(w, http.StatusAccepted, viewOf(j))
	case err != nil:
		s.writeError(w, r, http.StatusConflict, err)
	default:
		if ens := j.Ensemble(); ens != nil {
			v := resultViewOf(res)
			v.Ensemble = ensembleViewOf(ens, j.Config().KeepCells)
			writeJSON(w, http.StatusOK, v)
			return
		}
		// A single run's view is a function of the result alone, so its
		// bytes are encoded once per result (Cache.resultJSON), not per
		// request: the job that computed it is served the bytes
		// persistResult encoded and lets them go, a cache-hit job leaves
		// them for the next hit. Marshal plus a newline is what
		// writeJSON's Encoder writes.
		data, err := s.engine.Cache().resultJSON(j.key, res, !j.Status().Cached)
		if err != nil {
			writeJSON(w, http.StatusOK, resultViewOf(res)) // as before: the encoder's own failure mode
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
		w.Write([]byte{'\n'})
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if err := s.engine.Cancel(j.ID()); err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, viewOf(j))
}

// handleStream pushes the job over server-sent events until it is terminal
// or the client disconnects: a "step" event for every completed timestep
// (each carrying its tally total, wallclock and population — the per-step
// results a coupled client consumes — and, on a retain_snapshot job, the
// boundary of the checkpoint /snapshot serves), a "progress" snapshot whenever the
// job view changed (sampled every 100 ms), a keepalive comment on the
// server's heartbeat interval so idle streams survive proxy idle timeouts,
// and a final "done" event with the closing snapshot. Step events already
// recorded when the client connects are replayed first, so a late
// subscriber still sees the whole per-step history.
//
// Step and replica events carry SSE ids of the form "s<steps>r<replicas>"
// — cumulative counts after the event. A reconnecting client that sends
// Last-Event-ID (EventSource does this automatically) resumes exactly
// after the last event it saw instead of replaying the whole history; an
// unparseable id falls back to a full replay, which is safe because the
// histories are append-only.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		s.writeError(w, r, http.StatusNotImplemented, errors.New("service: streaming unsupported"))
		return
	}
	s.engine.metrics.streamSubscribers.Inc()
	defer s.engine.metrics.streamSubscribers.Dec()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	var lastProgress []byte
	emit := func(event string) {
		data, _ := json.Marshal(viewOf(j))
		lastProgress = data
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}
	// Progress snapshots are deduplicated against the last sent payload;
	// heartbeats carry the idle stream instead, at far lower frequency.
	emitProgress := func() {
		data, _ := json.Marshal(viewOf(j))
		if bytes.Equal(data, lastProgress) {
			return
		}
		lastProgress = data
		fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data)
		fl.Flush()
	}
	sent, sentReps := 0, 0
	if lastID := r.Header.Get("Last-Event-ID"); lastID != "" {
		var ls, lr int
		if n, _ := fmt.Sscanf(lastID, "s%dr%d", &ls, &lr); n == 2 && ls >= 0 && lr >= 0 {
			sent, sentReps = ls, lr
		}
	}
	emitSteps := func() {
		fresh := j.StepsFrom(sent)
		if len(fresh) == 0 {
			return
		}
		for _, sv := range fresh {
			data, _ := json.Marshal(sv)
			sent++
			fmt.Fprintf(w, "id: s%dr%d\nevent: step\ndata: %s\n\n", sent, sentReps, data)
		}
		fl.Flush()
	}
	emitReplicas := func() {
		fresh := j.ReplicasFrom(sentReps)
		if len(fresh) == 0 {
			return
		}
		for _, rv := range fresh {
			data, _ := json.Marshal(rv)
			sentReps++
			fmt.Fprintf(w, "id: s%dr%d\nevent: replica\ndata: %s\n\n", sent, sentReps, data)
		}
		fl.Flush()
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	heartbeat := time.NewTicker(s.heartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-j.Done():
			emitSteps()
			emitReplicas()
			emit("done")
			return
		case <-r.Context().Done():
			return
		case <-tick.C:
			emitSteps()
			emitReplicas()
			emitProgress()
		case <-heartbeat.C:
			// SSE comment line: ignored by EventSource clients, but
			// traffic enough to keep proxies from reaping the stream.
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		}
	}
}

// handleSnapshot serves the job's latest checkpoint (Job.ckpt) as the raw
// snapshot binary — the pull side of fleet rescheduling: a coordinator
// fetches the worker's last checkpointed boundary here and seeds the
// replacement shard with it. That is the boundary the cost cadence last
// picked, not necessarily the last step completed, and it stays served after
// the job is done. 404 while the job holds none (an unseeded retain_snapshot
// run before its first step boundary); the X-Neutral-Step header carries the
// step index the snapshot restores to, -1 for one the job was handed rather
// than took.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	data, step := j.Snapshot()
	if data == nil {
		s.writeError(w, r, http.StatusNotFound,
			errors.New("service: no retained snapshot (submit with retain_snapshot, then wait for a step boundary)"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Neutral-Step", strconv.Itoa(step))
	w.Write(data)
}

// handleTrace serves the job's per-step phase spans as Chrome trace-event
// JSON — load it in chrome://tracing or Perfetto to see where each step's
// wallclock went. 404s for jobs with no recorded spans (cache hits and
// ensemble parents; an ensemble's traces live on its replica jobs).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	timings := j.Timings()
	if len(timings) == 0 {
		s.writeError(w, r, http.StatusNotFound,
			errors.New("service: no trace recorded for job"))
		return
	}
	tr := telemetry.NewTrace()
	track := tr.Track(j.ID())
	for _, st := range timings {
		var phases []telemetry.Phase
		st.Phases.Each(func(name string, d time.Duration) {
			phases = append(phases, telemetry.Phase{Name: name, Dur: d})
		})
		track.AddStep(st.Step, st.Wall, phases)
	}
	w.Header().Set("Content-Type", "application/json")
	tr.WriteChrome(w)
}

// handleMetrics serves the engine's registry in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.engine.Registry().WritePrometheus(w)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
