package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Phase is one named slice of a step's wallclock — a solver kernel phase
// laid out as a child span under the step span. On the wire (a service step
// view) it is {"name","ns"}, the duration exact to the nanosecond.
type Phase struct {
	Name string        `json:"name"`
	Dur  time.Duration `json:"ns"`
}

// Trace accumulates step/phase spans across one or more tracks and renders
// them as Chrome trace-event JSON (chrome://tracing, Perfetto, Speedscope
// all consume it). Tracks map to trace "threads": each job, sweep point or
// CLI run gets its own swim lane. Safe for concurrent use.
type Trace struct {
	mu     sync.Mutex
	tracks []*Track
	nextID int
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Track opens (or reopens, by name) a swim lane for one unit of work.
func (t *Trace) Track(name string) *Track {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range t.tracks {
		if tr.name == name {
			return tr
		}
	}
	t.nextID++
	tr := &Track{trace: t, name: name, tid: t.nextID}
	t.tracks = append(t.tracks, tr)
	return tr
}

// Track is one swim lane of step spans. A track has its own running clock:
// each AddStep lays the step span immediately after the previous one, so
// the lane shows solver time, not wall time spent outside the solver.
type Track struct {
	trace *Trace
	name  string
	tid   int

	mu    sync.Mutex
	clock time.Duration
	spans []span
}

// span is one complete ("X") event.
type span struct {
	name  string
	start time.Duration
	dur   time.Duration
}

// AddStep records one solver step of the given wallclock, with its phase
// breakdown nested inside. Phases are laid out sequentially from the step
// start; any residue (wall not attributed to a phase) is left uncovered,
// visible in the viewer as a gap at the end of the step span.
func (tr *Track) AddStep(step int, wall time.Duration, phases []Phase) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	start := tr.clock
	tr.spans = append(tr.spans, span{
		name:  fmt.Sprintf("step %d", step),
		start: start,
		dur:   wall,
	})
	at := start
	for _, p := range phases {
		if p.Dur <= 0 {
			continue
		}
		d := p.Dur
		// Clamp phases into the step span so the viewer nests them: timer
		// granularity can make the phase sum exceed the step wall by a few
		// microseconds.
		if at+d > start+wall {
			d = start + wall - at
			if d <= 0 {
				break
			}
		}
		tr.spans = append(tr.spans, span{name: p.Name, start: at, dur: d})
		at += d
	}
	tr.clock = start + wall
}

// chromeEvent is the trace-event JSON wire form.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts,omitempty"`  // microseconds
	Dur   float64        `json:"dur,omitempty"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChrome writes the trace as a Chrome trace-event JSON object.
func (t *Trace) WriteChrome(w io.Writer) error {
	t.mu.Lock()
	tracks := append([]*Track(nil), t.tracks...)
	t.mu.Unlock()

	events := make([]chromeEvent, 0, 64)
	for _, tr := range tracks {
		tr.mu.Lock()
		spans := append([]span(nil), tr.spans...)
		tr.mu.Unlock()
		events = append(events, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   tr.tid,
			Args:  map[string]any{"name": tr.name},
		})
		for _, s := range spans {
			events = append(events, chromeEvent{
				Name:  s.name,
				Phase: "X",
				TS:    micros(s.start),
				Dur:   micros(s.dur),
				PID:   1,
				TID:   tr.tid,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
