// Package obs is the stdlib-only observability layer of PCQE: a
// metrics registry (atomic counters, gauges, and fixed-bucket
// histograms) and a lightweight span tracer, threaded through the
// engine and the strategy solvers.
//
// The paper's evaluation (Figure 11) separates query evaluation,
// confidence computation and strategy finding as individually measured
// phases, and confidence computation is routinely the dominant,
// hard-to-predict cost (Koch & Olteanu). This package makes those
// phases visible at runtime: the engine records per-phase timing spans
// on every Response, the solvers attribute their work counters (nodes,
// δ-steps, Shannon pivots) to the active span, and the metrics
// registry aggregates fleet-level counts (queries, rows released and
// withheld, degradations, audit events, improvement spend).
//
// Everything here is nil-safe: a nil *Metrics, *Counter, *Gauge,
// *Histogram or *Span turns every method into a no-op, so instrumented
// code never needs to guard the unobserved path.
package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (e.g. in-flight requests).
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with atomic bucket counts and
// an atomic running sum. Bucket i counts observations ≤ Bounds[i]; one
// extra overflow bucket counts everything larger. Bounds are fixed at
// registration and never reallocated, so Observe is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	sum    atomic.Uint64  // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Default bucket sets for the engine's histograms.
var (
	// LatencyBuckets covers request latencies from 100µs to 10s.
	LatencyBuckets = []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
	// SizeBuckets covers result-set and instance sizes.
	SizeBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
	// CostBuckets covers improvement-plan costs.
	CostBuckets = []float64{1, 10, 100, 1000, 10000, 100000}
)

// Metrics is a named registry of counters, gauges and histograms. The
// zero value is NOT ready: use New. A nil *Metrics is valid and
// discards every operation, so callers thread it unconditionally.
type Metrics struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New returns an empty metrics registry.
func New() *Metrics {
	return &Metrics{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	c := m.counters[name]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.counters[name]; c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	g := m.gauges[name]
	m.mu.RUnlock()
	if g != nil {
		return g
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g = m.gauges[name]; g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with bounds on
// first use. The first registration fixes the buckets; later calls
// return the existing histogram regardless of bounds.
func (m *Metrics) Histogram(name string, bounds []float64) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	h := m.histograms[name]
	m.mu.RUnlock()
	if h != nil {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h = m.histograms[name]; h == nil {
		h = newHistogram(bounds)
		m.histograms[name] = h
	}
	return h
}

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra overflow
	// bucket at the end.
	Bounds []float64
	Counts []int64
	// Count is the sum of Counts, so it always equals the cumulative
	// count of the last (+Inf) bucket.
	Count int64
	Sum   float64
}

// Snapshot is a point-in-time copy of a registry, for tests and the
// Prometheus rendering.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Snapshot copies the registry's current values. A nil registry yields
// an empty (but usable) snapshot.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if m == nil {
		return s
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for name, c := range m.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range m.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range m.histograms {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Sum:    math.Float64frombits(h.sum.Load()),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
			hs.Count += hs.Counts[i]
		}
		s.Histograms[name] = hs
	}
	return s
}

// PrometheusName is the exposed name of a registry name: "pcqe_" plus
// the name with every character outside [A-Za-z0-9_] turned into "_"
// (engine.request.seconds → pcqe_engine_request_seconds).
func PrometheusName(name string) string {
	return "pcqe_" + strings.Map(func(r rune) rune {
		if r == '_' || r >= '0' && r <= '9' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' {
			return r
		}
		return '_'
	}, name)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format: every metric sorted by name, each with a # TYPE line;
// histograms as cumulative _bucket{le="…"} lines through +Inf, then _sum
// and _count. `pcqe -metrics` prints it and pcqed's /metrics serves it.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	type entry struct{ name, kind string }
	var entries []entry
	for name := range s.Counters {
		entries = append(entries, entry{name, "counter"})
	}
	for name := range s.Gauges {
		entries = append(entries, entry{name, "gauge"})
	}
	for name := range s.Histograms {
		entries = append(entries, entry{name, "histogram"})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	b := bufio.NewWriter(w)
	for _, e := range entries {
		p := PrometheusName(e.name)
		b.WriteString("# TYPE " + p + " " + e.kind + "\n")
		switch e.kind {
		case "counter":
			b.WriteString(p + " " + strconv.FormatInt(s.Counters[e.name], 10) + "\n")
		case "gauge":
			b.WriteString(p + " " + strconv.FormatInt(s.Gauges[e.name], 10) + "\n")
		default:
			h := s.Histograms[e.name]
			var cum int64
			for i, n := range h.Counts {
				cum += n
				le := "+Inf"
				if i < len(h.Bounds) {
					le = strconv.FormatFloat(h.Bounds[i], 'g', -1, 64)
				}
				b.WriteString(p + "_bucket{le=\"" + le + "\"} " + strconv.FormatInt(cum, 10) + "\n")
			}
			b.WriteString(p + "_sum " + strconv.FormatFloat(h.Sum, 'g', -1, 64) + "\n")
			b.WriteString(p + "_count " + strconv.FormatInt(h.Count, 10) + "\n")
		}
	}
	return b.Flush()
}

// runtimeGauges maps the gauges ServeHTTP refreshes on every scrape to
// their runtime/metrics samples.
var runtimeGauges = [...][2]string{
	{"runtime.goroutines", "/sched/goroutines:goroutines"},
	{"runtime.heap.bytes", "/memory/classes/heap/objects:bytes"},
	{"runtime.gc.cycles", "/gc/cycles/total:gc-cycles"},
}

// ServeHTTP serves the registry as Prometheus text (pcqed's operator
// listener mounts it at /metrics). Each scrape first sets the
// runtime.goroutines, runtime.heap.bytes and runtime.gc.cycles gauges
// from runtime/metrics.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	samples := make([]rtmetrics.Sample, len(runtimeGauges))
	for i, g := range runtimeGauges {
		samples[i].Name = g[1]
	}
	rtmetrics.Read(samples)
	for i, g := range runtimeGauges {
		if samples[i].Value.Kind() == rtmetrics.KindUint64 {
			m.Gauge(g[0]).Set(int64(samples[i].Value.Uint64()))
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// A failed write means the scraper hung up; nobody is left to tell.
	_ = m.Snapshot().WritePrometheus(w)
}
