package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"

	"hyperbal/internal/obs"
)

// span is one timed call the benchmark made into a layer. Spans of one op
// share Op; Parent is the id of the op's root span (0 for a root).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"` // op index in the traced pass; -1 outside ops
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// tracer keeps spans in memory until the pass ends. A nil *tracer is the
// untraced pass: every method is a no-op, so call sites do not branch.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and the func that closes it.
func (t *tracer) begin(name string, op, parent int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Parent: parent, Op: op, Name: name,
		StartUS: float64(start.Sub(t.t0).Nanoseconds()) / 1e3})
	id := len(t.spans)
	t.spans[id-1].ID = id
	t.mu.Unlock()
	return id, func() {
		d := time.Since(start)
		t.mu.Lock()
		t.spans[id-1].DurUS = float64(d.Nanoseconds()) / 1e3
		t.mu.Unlock()
	}
}

// opTrace scopes spans to one op. A nil *opTrace records nothing.
type opTrace struct {
	t    *tracer
	op   int
	root int
	end  func()
}

// scope opens a root span: "op" for op number i of the pass, or a named
// span outside the ops (set-up, probes) with i = -1.
func (t *tracer) scope(name string, i int) *opTrace {
	if t == nil {
		return nil
	}
	id, end := t.begin(name, i, 0)
	return &opTrace{t: t, op: i, root: id, end: end}
}

// span opens a child span of the op; call the result to close it.
func (o *opTrace) span(name string) func() {
	if o == nil {
		return func() {}
	}
	_, end := o.t.begin(name, o.op, o.root)
	return end
}

func (o *opTrace) close() {
	if o != nil {
		o.end()
	}
}

// spanSum is the summed duration, in milliseconds, and the number of the
// spans of one name.
type spanSum struct {
	ms float64
	n  int
}

// sums totals the recorded spans by name.
func (t *tracer) sums() map[string]spanSum {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[string]spanSum)
	for _, s := range t.spans {
		v := m[s.Name]
		v.ms += s.DurUS / 1e3
		v.n++
		m[s.Name] = v
	}
	return m
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// regDiff is the growth of the process-wide obs registry between two
// snapshots: the per-layer numbers the layers already record themselves.
type regDiff struct{ before, after obs.Snapshot }

// matches reports whether registry key is of family and, when sel is not
// empty, carries the label block sel (e.g. `route="epoch"`).
func matches(key, family, sel string) bool {
	return obs.Family(key) == family && (sel == "" || strings.Contains(key, "{"+sel+"}"))
}

// counter sums the growth of every counter series of family (restricted
// to the label selector sel when given).
func (d regDiff) counter(family, sel string) float64 {
	var v int64
	for k, a := range d.after.Counters {
		if matches(k, family, sel) {
			v += a - d.before.Counters[k]
		}
	}
	return float64(v)
}

// histMS sums the growth of Histogram.Sum() over every series of a *_ns
// family, in milliseconds.
func (d regDiff) histMS(family, sel string) float64 {
	var ns int64
	for k, a := range d.after.Histograms {
		if matches(k, family, sel) {
			ns += a.Sum - d.before.Histograms[k].Sum
		}
	}
	return float64(ns) / 1e6
}
