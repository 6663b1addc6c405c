package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share Op;
// Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID, Parent int
	Name       string
	Op         int
	Track      string // swim lane in the written trace
	Start, End time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the benchmark ends. All times are
// offsets from the recorder's epoch on the process's monotonic clock, so
// client-side, server-side and decorator spans share one time base (every
// tier of a stack runs in this process).
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID.
func (r *recorder) add(parent int, name string, op int, track string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Op: op, Track: track,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch),
	})
	return id
}

// open starts a span whose end is not known yet; close finishes it.
func (r *recorder) open(parent int, name string, op int, track string) int {
	now := time.Now()
	return r.add(parent, name, op, track, now, now)
}

func (r *recorder) close(id int) {
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// get returns span id as recorded so far.
func (r *recorder) get(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

// opOf returns the op identifier of span id (0 for no span).
func (r *recorder) opOf(id int) int {
	if r == nil || id == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1].Op
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes computes, for every span, its duration minus the part of its
// interval that its child spans cover. A span counts only where it lies
// inside its parent (which in turn counts only inside its own parent), and
// overlapping children are counted once. So self times are never negative,
// and over a tree whose siblings do not overlap they sum to the root's
// duration exactly; any excess is concurrency between siblings.
// Parents must be recorded before their children (the recorder's IDs are).
func selfTimes(spans []span) map[int]time.Duration {
	type iv struct{ lo, hi time.Duration }
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].ID < sorted[b].ID })
	eff := make(map[int]iv, len(sorted)) // the span clipped to its ancestors
	children := map[int][]iv{}
	for _, s := range sorted {
		e := iv{s.Start, s.End}
		if p, ok := eff[s.Parent]; ok {
			e = iv{max(e.lo, p.lo), min(e.hi, p.hi)}
			if e.hi < e.lo {
				e.hi = e.lo
			}
			children[s.Parent] = append(children[s.Parent], e)
		}
		eff[s.ID] = e
	}
	self := make(map[int]time.Duration, len(sorted))
	for _, s := range sorted {
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		e := eff[s.ID]
		covered, end := time.Duration(0), e.lo
		for _, c := range ivs {
			if c.hi <= end {
				continue
			}
			covered += c.hi - max(c.lo, end)
			end = c.hi
		}
		self[s.ID] = e.hi - e.lo - covered
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto). Each track is one "thread"; args carry the span, parent and op
// identifiers so the causal tree survives the export.
func writeChrome(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	tids := map[string]int{}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(spans)+8)
	for _, s := range spans {
		tid, ok := tids[s.Track]
		if !ok {
			tid = len(tids) + 1
			tids[s.Track] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": s.Track}})
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: tid,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
