// Package obs is prism's zero-dependency observability subsystem: a
// process-wide metrics registry (atomic counters, gauges, and
// fixed-memory sliding-window histograms), a
// span tree for tracing discovery rounds, and a Prometheus text
// exposition encoder behind GET /api/v1/metrics.
//
// The registry is built for near-zero hot-path cost: a counter bump is
// one atomic load (the enabled flag) plus one atomic add, with no
// allocation; when the registry is disabled every instrument becomes a
// no-op after the single load. Instruments are registered once (keyed
// by name + label set) and held by the instrumented package, so the
// scrape path — which locks, sorts, and formats — never touches the
// round pipeline.
//
// Scrape-time values that already live elsewhere (the admission
// controller's counters, the scheduler pool gauges) are exposed through
// collectors: functions invoked during WritePrometheus that read the
// same live source /api/v1/stats reads. Registering the source once
// means the two endpoints cannot drift.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// Metric family types, matching the Prometheus exposition format.
const (
	TypeCounter = "counter"
	TypeGauge   = "gauge"
	TypeSummary = "summary"
)

// Registry holds named metric families and scrape-time collectors. The
// zero value is not usable; call NewRegistry. Most code uses Default.
type Registry struct {
	enabled atomic.Bool

	mu         sync.Mutex
	families   map[string]*family
	order      []string // registration order of family names
	collectors []func() []Sample
}

// family is every registered series of one metric name.
type family struct {
	name string
	help string
	typ  string
	// series in registration order; the key is the serialized label set.
	keys   []string
	series map[string]instrument
}

// instrument is anything the registry can scrape.
type instrument interface {
	samples(name string, labels []Label) []Sample
}

// Sample is one exposition line: a metric name, its label set, and a
// value. Collectors return these; the encoder groups them by Name.
type Sample struct {
	Name   string
	Help   string
	Type   string
	Labels []Label
	Value  float64
}

// NewRegistry returns an enabled, empty registry.
func NewRegistry() *Registry {
	r := &Registry{families: make(map[string]*family)}
	r.enabled.Store(true)
	return r
}

// Default is the process-wide registry. Library instrumentation
// (discovery round counters, memory accounting) registers here; the
// demo server additionally scrapes it from /api/v1/metrics.
var Default = NewRegistry()

// Enable turns instrument updates on. Registries start enabled.
func (r *Registry) Enable() { r.enabled.Store(true) }

// Disable turns every instrument of this registry into a no-op (one
// atomic load per call). Scraping still works and reports the values
// accumulated while enabled.
func (r *Registry) Disable() { r.enabled.Store(false) }

// labelKey serializes a label set into a map key. Labels are sorted so
// the same set in a different order names the same series, and each
// component is quoted so delimiter characters inside a key or value
// cannot make two distinct label sets collide on one key.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(strconv.Quote(l.Key))
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
		b.WriteByte(',')
	}
	return b.String()
}

// register memoizes one series: the first call for (name, labels)
// creates it via mk, later calls return the existing instrument.
func (r *Registry) register(name, help, typ string, labels []Label, mk func() instrument) instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]instrument)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	key := labelKey(labels)
	if got, ok := f.series[key]; ok {
		return got
	}
	in := mk()
	f.series[key] = in
	f.keys = append(f.keys, key)
	return in
}

// Counter returns the monotonically increasing counter registered under
// name with the given label set, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, TypeCounter, labels, func() instrument {
		return &Counter{enabled: &r.enabled, labels: append([]Label(nil), labels...)}
	}).(*Counter)
}

// Gauge returns the gauge registered under name with the given label
// set, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, TypeGauge, labels, func() instrument {
		return &Gauge{enabled: &r.enabled, labels: append([]Label(nil), labels...)}
	}).(*Gauge)
}

// Histogram returns the fixed-memory histogram registered under name,
// creating it on first use with the given observation window (0 uses
// DefaultWindow). Exported as a Prometheus summary with p50/p90/p99
// quantiles over the window plus lifetime _sum and _count.
func (r *Registry) Histogram(name, help string, window int, labels ...Label) *Histogram {
	return r.register(name, help, TypeSummary, labels, func() instrument {
		if window <= 0 {
			window = DefaultWindow
		}
		return &Histogram{
			enabled: &r.enabled,
			labels:  append([]Label(nil), labels...),
			window:  make([]float64, 0, window),
			cap:     window,
		}
	}).(*Histogram)
}

// RegisterCollector adds a scrape-time sample source. The function runs
// on every WritePrometheus call and must be safe for concurrent use; it
// should read live state (e.g. an admission snapshot) and return one
// Sample per series.
func (r *Registry) RegisterCollector(f func() []Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, f)
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

// Counter is a monotonically increasing int64. The nil Counter is a
// valid no-op, so optional instrumentation needs no nil checks.
type Counter struct {
	enabled *atomic.Bool
	labels  []Label
	v       atomic.Int64
}

// Add increments the counter by n (negative n is ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 || !c.enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) samples(name string, labels []Label) []Sample {
	return []Sample{{Name: name, Labels: labels, Value: float64(c.v.Load())}}
}

// Gauge is a settable int64 with an atomic ratchet for peak tracking.
// The nil Gauge is a valid no-op.
type Gauge struct {
	enabled *atomic.Bool
	labels  []Label
	v       atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil || !g.enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil || !g.enabled.Load() {
		return
	}
	g.v.Add(delta)
}

// SetMax ratchets the gauge up to v if v exceeds the current value —
// the primitive behind the peak-memory gauges.
func (g *Gauge) SetMax(v int64) {
	if g == nil || !g.enabled.Load() {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) samples(name string, labels []Label) []Sample {
	return []Sample{{Name: name, Labels: labels, Value: float64(g.v.Load())}}
}

// DefaultWindow is the observation window of a Histogram when the
// registration does not pick one.
const DefaultWindow = 1024

// histQuantiles are the quantile series a Histogram exports.
var histQuantiles = []float64{0.5, 0.9, 0.99}

// Histogram answers quantile queries exactly over a sliding window of
// the most recent observations — old traffic ages out and memory is
// fixed however many values it has seen — and keeps lifetime count and
// sum. The nil Histogram is a valid no-op.
type Histogram struct {
	enabled *atomic.Bool
	labels  []Label

	mu     sync.Mutex
	window []float64
	next   int
	cap    int
	count  int64
	sum    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || !h.enabled.Load() || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	if len(h.window) < h.cap {
		h.window = append(h.window, v)
	} else {
		h.window[h.next] = v
		h.next = (h.next + 1) % h.cap
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Count returns the lifetime number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) over the current window,
// or NaN with no observations. Nearest-rank on a sorted snapshot.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	h.mu.Lock()
	snap := append([]float64(nil), h.window...)
	h.mu.Unlock()
	return quantileOf(snap, q)
}

func quantileOf(snap []float64, q float64) float64 {
	if len(snap) == 0 {
		return math.NaN()
	}
	sort.Float64s(snap)
	if q <= 0 {
		return snap[0]
	}
	if q >= 1 {
		return snap[len(snap)-1]
	}
	rank := int(math.Ceil(q*float64(len(snap)))) - 1
	if rank < 0 {
		rank = 0
	}
	return snap[rank]
}

func (h *Histogram) samples(name string, labels []Label) []Sample {
	h.mu.Lock()
	snap := append([]float64(nil), h.window...)
	count, sum := h.count, h.sum
	h.mu.Unlock()
	sort.Float64s(snap)
	out := make([]Sample, 0, len(histQuantiles)+2)
	for _, q := range histQuantiles {
		v := math.NaN()
		if len(snap) > 0 {
			rank := int(math.Ceil(q*float64(len(snap)))) - 1
			if rank < 0 {
				rank = 0
			}
			v = snap[rank]
		}
		ql := append(append([]Label(nil), labels...), Label{Key: "quantile", Value: trimFloat(q)})
		out = append(out, Sample{Name: name, Labels: ql, Value: v})
	}
	out = append(out,
		Sample{Name: name + "_sum", Labels: labels, Value: sum},
		Sample{Name: name + "_count", Labels: labels, Value: float64(count)},
	)
	return out
}

// trimFloat formats a quantile label without trailing zeros ("0.5").
func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%g", f), "0"), ".")
}

// ---------------------------------------------------------------------------
// Scrape
// ---------------------------------------------------------------------------

// Gather returns every sample of the registry — static instruments in
// registration order plus collector output — without formatting. The
// encoder and the stats⇄metrics cross-check tests share it.
//
// Family keys and series maps are mutated by register() under r.mu, and
// series registration happens at request time (e.g. the first round of
// a new tenant), so everything read from a family is snapshotted while
// the lock is held; only instrument.samples() — which reads atomics or
// takes the instrument's own lock — runs after release.
func (r *Registry) Gather() []Sample {
	type famSnap struct {
		name, help, typ string
		series          []instrument
	}
	r.mu.Lock()
	fams := make([]famSnap, 0, len(r.order))
	for _, name := range r.order {
		f := r.families[name]
		fs := famSnap{name: f.name, help: f.help, typ: f.typ,
			series: make([]instrument, 0, len(f.keys))}
		for _, key := range f.keys {
			fs.series = append(fs.series, f.series[key])
		}
		fams = append(fams, fs)
	}
	collectors := append([]func() []Sample(nil), r.collectors...)
	r.mu.Unlock()

	var out []Sample
	for _, f := range fams {
		for _, in := range f.series {
			for _, s := range in.samples(f.name, labelsOf(in)) {
				s.Help, s.Type = f.help, f.typ
				out = append(out, s)
			}
		}
	}
	for _, c := range collectors {
		out = append(out, c()...)
	}
	return out
}

func labelsOf(in instrument) []Label {
	switch v := in.(type) {
	case *Counter:
		return v.labels
	case *Gauge:
		return v.labels
	case *Histogram:
		return v.labels
	}
	return nil
}
