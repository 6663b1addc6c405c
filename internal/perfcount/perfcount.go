// Package perfcount reads hardware and software performance counters around
// code regions through the Linux perf_event_open interface — no cgo, no
// external binaries, raw syscalls only — and degrades gracefully everywhere
// the interface is absent or restricted.
//
// The paper's analysis rests on hardware-counter evidence (VTune and nvprof
// miss rates attributing the solver's profile to the particle→mesh memory
// dependency, §VI). This package is the Go reproduction's equivalent: a
// counter group opened around the solver's kernel phases turns "Over Events
// is slower" into "Over Events misses LLC 3x as often in the event kernel".
//
// # Degradation contract
//
// Counters are a privilege- and hardware-gated resource: containers commonly
// run with perf_event_paranoid above the unprivileged threshold, VMs often
// expose no PMU at all (every hardware event fails ENOENT), and non-Linux
// platforms have no syscall. The rules, in order:
//
//   - Each requested event opens independently; an event the kernel refuses
//     is silently dropped, not an error.
//   - Open fails with ErrUnsupported only when *no* requested event opened.
//     Callers treat that as "run without counters", never as a failure.
//   - On non-Linux (or non-amd64/arm64) builds every open fails, so Open is
//     a compile-time-safe constant ErrUnsupported.
//
// A disabled probe costs one nil check per region — nothing is opened, read
// or allocated.
package perfcount

import "errors"

// ErrUnsupported reports that no requested counter could be opened: wrong
// platform, no PMU, or insufficient privilege (perf_event_paranoid). It is
// the "skip, don't fail" signal — tests skip on it, tools report counters
// as unavailable on it.
var ErrUnsupported = errors.New("perfcount: performance counters unsupported on this system")

// Event names one countable quantity: a perf_event_attr type/config pair
// plus the stable name it is reported under.
type Event struct {
	Name   string
	Type   uint64 // PERF_TYPE_*
	Config uint64 // PERF_COUNT_* (possibly a HW_CACHE triple)
}

// perf_event_attr type and config constants (linux/perf_event.h). Spelled
// here rather than imported: the package is stdlib-only by design.
const (
	typeHardware = 0 // PERF_TYPE_HARDWARE
	typeSoftware = 1 // PERF_TYPE_SOFTWARE
	typeHWCache  = 3 // PERF_TYPE_HW_CACHE

	hwCycles       = 0 // PERF_COUNT_HW_CPU_CYCLES
	hwInstructions = 1 // PERF_COUNT_HW_INSTRUCTIONS
	hwBranchMisses = 5 // PERF_COUNT_HW_BRANCH_MISSES

	swCPUClock  = 0 // PERF_COUNT_SW_CPU_CLOCK
	swTaskClock = 1 // PERF_COUNT_SW_TASK_CLOCK
	swPageFault = 2 // PERF_COUNT_SW_PAGE_FAULTS
	swCtxSwitch = 3 // PERF_COUNT_SW_CONTEXT_SWITCHES

	// HW_CACHE config = id | (op << 8) | (result << 16).
	cacheL1D      = 0 // PERF_COUNT_HW_CACHE_L1D
	cacheLL       = 2 // PERF_COUNT_HW_CACHE_LL
	cacheOpRead   = 0 // PERF_COUNT_HW_CACHE_OP_READ
	cacheAccess   = 0 // PERF_COUNT_HW_CACHE_RESULT_ACCESS
	cacheMiss     = 1 // PERF_COUNT_HW_CACHE_RESULT_MISS
	cacheOpShift  = 8
	cacheResShift = 16
)

func cacheEvent(id, op, result uint64) uint64 {
	return id | op<<cacheOpShift | result<<cacheResShift
}

// HardwareEvents returns the cache-behaviour event set the paper's analysis
// speaks in: cycles, instructions, L1D and last-level loads and misses, and
// branch mispredictions. On machines without a PMU (most VMs) every one of
// these fails to open.
func HardwareEvents() []Event {
	return []Event{
		{Name: "cycles", Type: typeHardware, Config: hwCycles},
		{Name: "instructions", Type: typeHardware, Config: hwInstructions},
		{Name: "branch-misses", Type: typeHardware, Config: hwBranchMisses},
		{Name: "l1d-loads", Type: typeHWCache, Config: cacheEvent(cacheL1D, cacheOpRead, cacheAccess)},
		{Name: "l1d-load-misses", Type: typeHWCache, Config: cacheEvent(cacheL1D, cacheOpRead, cacheMiss)},
		{Name: "llc-loads", Type: typeHWCache, Config: cacheEvent(cacheLL, cacheOpRead, cacheAccess)},
		{Name: "llc-load-misses", Type: typeHWCache, Config: cacheEvent(cacheLL, cacheOpRead, cacheMiss)},
	}
}

// SoftwareEvents returns the kernel-maintained events that work wherever
// perf_event_open itself is permitted, PMU or not: task-clock (counted
// nanoseconds on-CPU), page faults and context switches.
func SoftwareEvents() []Event {
	return []Event{
		{Name: "task-clock", Type: typeSoftware, Config: swTaskClock},
		{Name: "page-faults", Type: typeSoftware, Config: swPageFault},
		{Name: "context-switches", Type: typeSoftware, Config: swCtxSwitch},
	}
}

// DefaultEvents is the standard request: all hardware events plus the
// software fallbacks, so a PMU-less system still yields a usable (if
// coarser) profile from whatever subset opens.
func DefaultEvents() []Event {
	return append(HardwareEvents(), SoftwareEvents()...)
}

// sample is one raw counter read: the accumulated value plus the enabled and
// running times that scale it when the kernel multiplexed the counter.
type sample struct {
	value, enabled, running uint64
}

// scaledDelta extrapolates the counter delta between two reads to the full
// enabled interval: when the PMU was oversubscribed and the counter only ran
// for part of it, value*(enabled/running) is the standard perf estimate.
func scaledDelta(from, to sample) uint64 {
	dv := to.value - from.value
	de := to.enabled - from.enabled
	dr := to.running - from.running
	if dr == 0 || de == dr {
		return dv
	}
	return uint64(float64(dv) * float64(de) / float64(dr))
}

// opened is one live counter fd (or the platform stub's placeholder).
type opened struct {
	name string
	h    eventHandle
}

// Group is a set of independently opened counters enabled and read together.
// Events the system refused at Open are absent from the group; Names reports
// what actually opened. Not safe for concurrent use.
//
// The counters observe the whole process (pid 0, any CPU, inherit set), but
// with one caveat the callers document: inheritance applies to threads
// created after the open, and the Go runtime pre-creates OS threads, so
// multi-threaded phases undercount on kernels that refuse inherit-all. The
// task-clock event calibrates: reported counts scale to wall time by
// counted-clock / wall.
type Group struct {
	events []opened
	base   []sample // read at Enable: the zero point of Totals
}

// Open opens as many of the requested events as the system permits, leaving
// them disabled. It fails with ErrUnsupported only when none opened.
func Open(events ...Event) (*Group, error) {
	g := &Group{}
	for _, ev := range events {
		h, err := openEvent(ev)
		if err != nil {
			continue // degradation contract: drop, don't fail
		}
		g.events = append(g.events, opened{name: ev.Name, h: h})
	}
	if len(g.events) == 0 {
		return nil, ErrUnsupported
	}
	return g, nil
}

// Names lists the events that actually opened, in request order.
func (g *Group) Names() []string {
	names := make([]string, len(g.events))
	for i, ev := range g.events {
		names[i] = ev.name
	}
	return names
}

// Enable starts counting and records the zero point Totals measures from.
func (g *Group) Enable() error {
	for _, ev := range g.events {
		if err := enableEvent(ev.h); err != nil {
			return err
		}
	}
	g.base = g.read()
	return nil
}

// read takes a raw sample of every event.
func (g *Group) read() []sample {
	out := make([]sample, len(g.events))
	for i, ev := range g.events {
		out[i], _ = readEvent(ev.h)
	}
	return out
}

// Totals returns the multiplex-scaled counts accumulated since Enable,
// keyed by event name.
func (g *Group) Totals() map[string]uint64 {
	now := g.read()
	out := make(map[string]uint64, len(g.events))
	for i, ev := range g.events {
		var from sample
		if i < len(g.base) {
			from = g.base[i]
		}
		out[ev.name] = scaledDelta(from, now[i])
	}
	return out
}

// Close releases every counter. The group is unusable afterwards.
func (g *Group) Close() {
	for _, ev := range g.events {
		closeEvent(ev.h)
	}
	g.events = nil
}

// Collector attributes counter deltas to named regions — the solver's kernel
// phases. It satisfies the solver's RegionProbe interface structurally, so
// the solver package never imports this one. Regions must not nest and the
// caller must serialise Start/End pairs (the solver calls them from its own
// goroutine, outside the parallel worker sections, which also means worker
// threads stay counted throughout — the group is never disabled, regions are
// pure read-read deltas).
type Collector struct {
	g      *Group
	mark   []sample
	phases map[string]map[string]uint64
}

// NewCollector opens and enables a group over the given events and returns
// a region-attributing collector, or ErrUnsupported when nothing opened.
func NewCollector(events ...Event) (*Collector, error) {
	g, err := Open(events...)
	if err != nil {
		return nil, err
	}
	if err := g.Enable(); err != nil {
		g.Close()
		return nil, err
	}
	return &Collector{g: g, phases: make(map[string]map[string]uint64)}, nil
}

// Names lists the events the collector actually counts.
func (c *Collector) Names() []string { return c.g.Names() }

// StartRegion snapshots the counters at a region entry.
func (c *Collector) StartRegion(string) { c.mark = c.g.read() }

// EndRegion accumulates the delta since the matching StartRegion into the
// named region's bucket.
func (c *Collector) EndRegion(name string) {
	if c.mark == nil {
		return
	}
	now := c.g.read()
	bucket := c.phases[name]
	if bucket == nil {
		bucket = make(map[string]uint64, len(c.g.events))
		c.phases[name] = bucket
	}
	for i, ev := range c.g.events {
		bucket[ev.name] += scaledDelta(c.mark[i], now[i])
	}
	c.mark = nil
}

// Phases returns the per-region counter totals accumulated so far, keyed
// region → event. The maps are live; callers should copy if they keep them.
func (c *Collector) Phases() map[string]map[string]uint64 { return c.phases }

// Totals returns whole-collector counts since NewCollector.
func (c *Collector) Totals() map[string]uint64 { return c.g.Totals() }

// Close releases the underlying group.
func (c *Collector) Close() { c.g.Close() }
