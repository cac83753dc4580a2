// Package obs is the pipeline-wide observability layer: a lightweight
// metrics subsystem with atomic counters, gauges and fixed-bucket
// histograms in a named registry, plus stage-scoped timing helpers.
//
// Design constraints, in order:
//
//   - Allocation-free on the hot path. Handles (Counter, Gauge, Histogram)
//     are registered once — typically in package-level vars — and the
//     per-event operations (Add, Set, Observe, ObserveSince) are a bounded
//     number of atomic instructions with no locking and no allocation.
//     Registration itself takes the registry lock and may allocate; do it
//     at init time, not per event.
//   - Safe for concurrent use everywhere: the partitioners run under
//     worker pools and SPMD rank goroutines, so every metric is atomic.
//   - Cheap enough to stay on in production: the Figure-7 repartitioning
//     hot path carries the full instrumentation.
//
// Metrics have a family name (Prometheus conventions: snake_case, unit
// suffix) and an optional label set rendered into the registry key, e.g.
// `hgp_refine_ns{level="3"}`. The *Vec types cache label children so the
// steady state does a read-locked map (or slice) lookup only when a new
// child appears.
//
// Exposition: WritePrometheus (text format), WriteJSON / Snapshot
// (structured, used by the -metrics-json CI golden checks), and an HTTP
// handler with /debug/pprof mounted (http.go).
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic last-value metric.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram over int64 samples.
// Bounds are upper bucket edges (ascending); an implicit +Inf bucket
// catches the rest. Observe is lock- and allocation-free.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; the last is the +Inf bucket
	sum    atomic.Int64
	count  atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveSince records the nanoseconds elapsed since start — the stage
// timer primitive: `defer h.ObserveSince(time.Now())` brackets a stage.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(int64(time.Since(start)))
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// ExpBounds returns n exponential bucket bounds start, start*factor, ...
func ExpBounds(start, factor int64, n int) []int64 {
	bounds := make([]int64, n)
	b := start
	for i := range bounds {
		bounds[i] = b
		b *= factor
	}
	return bounds
}

// LinBounds returns n linear bucket bounds start, start+step, ...
func LinBounds(start, step int64, n int) []int64 {
	bounds := make([]int64, n)
	for i := range bounds {
		bounds[i] = start + int64(i)*step
	}
	return bounds
}

// DurationBounds covers 1µs .. ~8.6s in doubling nanosecond buckets, the
// default for *_ns stage timers.
var DurationBounds = ExpBounds(1000, 2, 24)

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered series: a family name plus rendered labels.
type metric struct {
	family string
	labels string // `k="v"` rendering, "" for unlabeled
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry (or use Default).
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
	order   []string // registration order, for stable-ish output grouping
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the pipeline instruments into.
func Default() *Registry { return defaultRegistry }

// renderLabels turns k,v pairs into a canonical `k="v",k2="v2"` block.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: labels must be key,value pairs")
	}
	s := ""
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			s += ","
		}
		s += kv[i] + `="` + kv[i+1] + `"`
	}
	return s
}

// lookup returns the registered metric for key, verifying its kind, or
// registers a new one built by mk.
func (r *Registry) lookup(family, labels string, kind metricKind, mk func() *metric) *metric {
	key := family
	if labels != "" {
		key = family + "{" + labels + "}"
	}
	r.mu.RLock()
	m := r.metrics[key]
	r.mu.RUnlock()
	if m != nil {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", key))
		}
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m = r.metrics[key]; m != nil {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", key))
		}
		return m
	}
	m = mk()
	r.metrics[key] = m
	r.order = append(r.order, key)
	return m
}

// Counter returns (registering if needed) the named counter. kv are
// optional label key,value pairs.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	labels := renderLabels(kv)
	m := r.lookup(name, labels, kindCounter, func() *metric {
		return &metric{family: name, labels: labels, kind: kindCounter, c: &Counter{}}
	})
	return m.c
}

// Gauge returns (registering if needed) the named gauge.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	labels := renderLabels(kv)
	m := r.lookup(name, labels, kindGauge, func() *metric {
		return &metric{family: name, labels: labels, kind: kindGauge, g: &Gauge{}}
	})
	return m.g
}

// Histogram returns (registering if needed) the named histogram. The
// bounds of the first registration win; later calls may pass nil.
func (r *Registry) Histogram(name string, bounds []int64, kv ...string) *Histogram {
	labels := renderLabels(kv)
	m := r.lookup(name, labels, kindHistogram, func() *metric {
		if len(bounds) == 0 {
			bounds = DurationBounds
		}
		h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		return &metric{family: name, labels: labels, kind: kindHistogram, h: h}
	})
	return m.h
}

// Reset zeroes every registered metric in place. Handles held by callers
// stay valid. Intended for tests and for before/after overhead runs.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, m := range r.metrics {
		switch m.kind {
		case kindCounter:
			m.c.v.Store(0)
		case kindGauge:
			m.g.v.Store(0)
		case kindHistogram:
			for i := range m.h.counts {
				m.h.counts[i].Store(0)
			}
			m.h.sum.Store(0)
			m.h.count.Store(0)
		}
	}
}

// sortedKeys returns all registry keys sorted, grouping a family's series
// together (label block sorts after the bare family name).
func (r *Registry) sortedKeys() []string {
	r.mu.RLock()
	keys := append([]string(nil), r.order...)
	r.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// get returns the metric for a key (nil if missing).
func (r *Registry) get(key string) *metric {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.metrics[key]
}

// CounterVec is a counter family with one variable label, caching children
// so the steady state is a read-locked map hit.
type CounterVec struct {
	r     *Registry
	name  string
	label string
	mu    sync.RWMutex
	m     map[string]*Counter
}

// CounterVec returns a counter family keyed by one label.
func (r *Registry) CounterVec(name, label string) *CounterVec {
	return &CounterVec{r: r, name: name, label: label, m: map[string]*Counter{}}
}

// With returns the child counter for the given label value.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c := v.m[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	c = v.r.Counter(v.name, v.label, value)
	v.mu.Lock()
	v.m[value] = c
	v.mu.Unlock()
	return c
}

// HistogramVec is a histogram family with one variable label. Children
// addressed by small integer (At) are cached in a slice, so per-level
// stage timers are allocation-free after first use of each level.
type HistogramVec struct {
	r      *Registry
	name   string
	label  string
	bounds []int64
	mu     sync.RWMutex
	m      map[string]*Histogram
	byIdx  []*Histogram
}

// HistogramVec returns a histogram family keyed by one label.
func (r *Registry) HistogramVec(name, label string, bounds []int64) *HistogramVec {
	return &HistogramVec{r: r, name: name, label: label, bounds: bounds, m: map[string]*Histogram{}}
}

// With returns the child histogram for the given label value.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h := v.m[value]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	h = v.r.Histogram(v.name, v.bounds, v.label, value)
	v.mu.Lock()
	v.m[value] = h
	v.mu.Unlock()
	return h
}

// At returns the child histogram for a small non-negative integer label
// value (a multilevel pipeline's level index), via a slice fast path.
func (v *HistogramVec) At(i int) *Histogram {
	if i < 0 {
		i = 0
	}
	v.mu.RLock()
	if i < len(v.byIdx) && v.byIdx[i] != nil {
		h := v.byIdx[i]
		v.mu.RUnlock()
		return h
	}
	v.mu.RUnlock()
	h := v.With(strconv.Itoa(i))
	v.mu.Lock()
	for i >= len(v.byIdx) {
		v.byIdx = append(v.byIdx, nil)
	}
	v.byIdx[i] = h
	v.mu.Unlock()
	return h
}
