// Package telemetry is the observability toolkit of the neutral system: a
// dependency-free metrics registry with Prometheus text exposition
// (registry.go, lint.go) and a span recorder that renders solver phase
// timings as Chrome trace-event JSON (trace.go).
//
// The registry deliberately implements only the slice of the Prometheus
// data model the serving tier needs — counters, gauges, fixed-bucket
// histograms, each scalar, labelled or callback-backed — with the full
// text exposition contract (HELP/TYPE headers, label escaping, cumulative
// buckets, deterministic ordering) so any Prometheus-compatible scraper
// can consume /metrics without a client-library dependency.
//
// All instruments are safe for concurrent use: hot-path updates are
// lock-free atomics; registration and exposition take registry locks.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type, named exactly as the TYPE line spells it.
type Kind string

// Metric family kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Registry holds metric families and writes them in Prometheus text
// exposition format. The zero value is not usable; construct with
// NewRegistry. Registration panics on invalid or duplicate names —
// metric vocabularies are static program structure, so a clash is a
// programming error, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with a fixed kind and label schema, holding
// every labelled series registered under the name.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string

	mu     sync.Mutex
	series map[string]*series // keyed by canonical label-value tuple
	order  []string           // registration order of keys, sorted at write
}

// series is one sample vector element: exactly one of the value sources is
// set.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	fn          func() float64
	hist        *Histogram
}

func (r *Registry) register(name, help string, kind Kind, labels []string) *family {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameRe.MatchString(l) || l == "le" {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; ok {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", name))
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: labels,
		series: make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// add installs a series under the family, panicking on a label-arity
// mismatch or duplicate tuple.
func (f *family) add(s *series) {
	if len(s.labelValues) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d",
			f.name, len(f.labels), len(s.labelValues)))
	}
	key := strings.Join(s.labelValues, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.series[key]; ok {
		panic(fmt.Sprintf("telemetry: %s{%v} registered twice", f.name, s.labelValues))
	}
	f.series[key] = s
	f.order = append(f.order, key)
}

// get returns the existing series for the tuple, or installs one built by
// mk. Used by the vec types for lazy label instantiation.
func (f *family) get(values []string, mk func() *series) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	s.labelValues = values
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Counter is a monotonically increasing float64 value.
type Counter struct{ bits atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas panic (counters only go up).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("telemetry: counter decreased")
	}
	addFloat(&c.bits, v)
}

// Value reads the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an arbitrarily settable float64 value.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by v (which may be negative).
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloat atomically adds v to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Histogram counts observations into fixed cumulative buckets. Observe is
// lock-free: one atomic add on the bucket, one on the count, one CAS loop
// on the sum.
type Histogram struct {
	upper  []float64 // ascending upper bounds, excluding +Inf
	counts []atomic.Uint64
	inf    atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	n      atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	for i := 1; i < len(upper); i++ {
		if upper[i] == upper[i-1] {
			panic(fmt.Sprintf("telemetry: duplicate histogram bucket %v", upper[i]))
		}
	}
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper))}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Buckets are few (tens); a linear scan beats binary search at this
	// size and keeps the loop branch-predictable.
	placed := false
	for i, ub := range h.upper {
		if v <= ub {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.n.Add(1)
	addFloat(&h.sum, v)
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum reports the total of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ExpBuckets returns n bucket bounds growing geometrically from start by
// factor — the standard shape for latency and throughput histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Counter registers and returns a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil)
	c := &Counter{}
	f.add(&series{counter: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — how existing atomic totals are exported without double-counting.
// fn must be safe for concurrent use and monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindCounter, nil)
	f.add(&series{fn: fn})
}

// Gauge registers and returns a scalar gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge, nil)
	g := &Gauge{}
	f.add(&series{gauge: g})
	return g
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindGauge, nil)
	f.add(&series{fn: fn})
}

// Histogram registers and returns a histogram with the given bucket upper
// bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, KindHistogram, nil)
	h := newHistogram(buckets)
	f.add(&series{hist: h})
	return h
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, KindCounter, labels)}
}

// CounterVec is a labelled counter family.
type CounterVec struct{ fam *family }

// With returns the counter for the label values, creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.fam.get(values, func() *series { return &series{counter: &Counter{}} }).counter
}

// Func installs a scrape-time callback series for the label values, under
// CounterFunc's contract.
func (v *CounterVec) Func(fn func() float64, values ...string) {
	v.fam.add(&series{labelValues: values, fn: fn})
}

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, KindGauge, labels)}
}

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ fam *family }

// With returns the gauge for the label values, creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.fam.get(values, func() *series { return &series{gauge: &Gauge{}} }).gauge
}

// Func installs a scrape-time callback series for the label values.
func (v *GaugeVec) Func(fn func() float64, values ...string) {
	v.fam.add(&series{labelValues: values, fn: fn})
}

// HistogramVec registers a histogram family with shared buckets and the
// given label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{
		fam:     r.register(name, help, KindHistogram, labels),
		buckets: append([]float64(nil), buckets...),
	}
}

// HistogramVec is a labelled histogram family.
type HistogramVec struct {
	fam     *family
	buckets []float64
}

// With returns the histogram for the label values, creating it on first
// use.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.fam.get(values, func() *series { return &series{hist: newHistogram(v.buckets)} }).hist
}

// WritePrometheus writes every registered family in Prometheus text
// exposition format (version 0.0.4). Families are ordered by name and
// series by label tuple, so output is deterministic for golden tests and
// clean diffs between scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.writeTo(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) writeTo(b *strings.Builder) {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	ss := make([]*series, 0, len(keys))
	for _, k := range keys {
		ss = append(ss, f.series[k])
	}
	f.mu.Unlock()
	if len(ss) == 0 {
		return
	}

	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range ss {
		labels := labelString(f.labels, s.labelValues, "", 0)
		switch {
		case s.hist != nil:
			h := s.hist
			cum := uint64(0)
			for i, ub := range h.upper {
				cum += h.counts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %s\n", f.name,
					labelString(f.labels, s.labelValues, "le", ub), formatUint(cum))
			}
			cum += h.inf.Load()
			fmt.Fprintf(b, "%s_bucket%s %s\n", f.name,
				labelString(f.labels, s.labelValues, "le", math.Inf(1)), formatUint(cum))
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labels, formatFloat(h.Sum()))
			fmt.Fprintf(b, "%s_count%s %s\n", f.name, labels, formatUint(h.Count()))
		default:
			var v float64
			switch {
			case s.counter != nil:
				v = s.counter.Value()
			case s.gauge != nil:
				v = s.gauge.Value()
			case s.fn != nil:
				v = s.fn()
			}
			fmt.Fprintf(b, "%s%s %s\n", f.name, labels, formatFloat(v))
		}
	}
}

// labelString renders {k="v",...}; le, when named, is appended as the
// histogram bucket bound. Empty label sets render as the empty string.
func labelString(names, values []string, le string, bound float64) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(le)
		b.WriteString(`="`)
		if math.IsInf(bound, 1) {
			b.WriteString("+Inf")
		} else {
			b.WriteString(formatFloat(bound))
		}
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }
