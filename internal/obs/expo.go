package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Snapshot is a point-in-time copy of a registry, the unit of the JSON
// exposition and of the -metrics-json CI golden checks.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// HistogramSnapshot is one histogram's cumulative state.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, key := range r.sortedKeys() {
		m := r.get(key)
		if m == nil {
			continue
		}
		switch m.kind {
		case kindCounter:
			s.Counters[key] = m.c.Load()
		case kindGauge:
			s.Gauges[key] = m.g.Load()
		case kindHistogram:
			s.Histograms[key] = HistogramSnapshot{Count: m.h.Count(), Sum: m.h.Sum()}
		}
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Family splits a registry key into its family name (the part before any
// label block).
func Family(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// labelsOf returns the label block of a key including braces ("" if none).
func labelsOf(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[i:]
	}
	return ""
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format. A histogram is a summary without quantiles: its _sum and _count
// lines (stage timers are in nanoseconds, hence the *_ns families).
func (r *Registry) WritePrometheus(w io.Writer) {
	// Group series by family so each family gets exactly one TYPE line.
	type series struct {
		key string
		m   *metric
	}
	families := map[string][]series{}
	var order []string
	for _, key := range r.sortedKeys() {
		m := r.get(key)
		if m == nil {
			continue
		}
		fam := m.family
		if _, ok := families[fam]; !ok {
			order = append(order, fam)
		}
		families[fam] = append(families[fam], series{key: key, m: m})
	}
	for _, fam := range order {
		ss := families[fam]
		switch ss[0].m.kind {
		case kindCounter:
			fmt.Fprintf(w, "# TYPE %s counter\n", fam)
			for _, s := range ss {
				fmt.Fprintf(w, "%s %d\n", s.key, s.m.c.Load())
			}
		case kindGauge:
			fmt.Fprintf(w, "# TYPE %s gauge\n", fam)
			for _, s := range ss {
				fmt.Fprintf(w, "%s %d\n", s.key, s.m.g.Load())
			}
		case kindHistogram:
			fmt.Fprintf(w, "# TYPE %s summary\n", fam)
			for _, s := range ss {
				labels := labelsOf(s.key)
				fmt.Fprintf(w, "%s_sum%s %d\n", fam, labels, s.m.h.Sum())
				fmt.Fprintf(w, "%s_count%s %d\n", fam, labels, s.m.h.Count())
			}
		}
	}
}
