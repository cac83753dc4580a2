package obs

import (
	"encoding/json"
	"fmt"
	"os"
)

// Schema is the checked-in contract a -metrics-json dump must satisfy: the
// CI golden check for counter presence and non-zero stage timings. Entries
// name either a full registry key (`hgp_refine_ns{level="0"}`) or a family
// (`hgp_refine_ns`), in which case any series of that family satisfies it.
type Schema struct {
	// Counters must be registered (any value).
	Counters []string `json:"counters"`
	// NonZeroCounters must be registered with a value > 0.
	NonZeroCounters []string `json:"nonzero_counters"`
	// Gauges must be registered (any value).
	Gauges []string `json:"gauges"`
	// Histograms must be registered (any sample count).
	Histograms []string `json:"histograms"`
	// NonZeroHistograms must be registered with at least one sample and a
	// positive sum (a stage that ran and took measurable time).
	NonZeroHistograms []string `json:"nonzero_histograms"`
}

// ReadSchema loads a schema file.
func ReadSchema(path string) (Schema, error) {
	var s Schema
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("obs: schema %s: %w", path, err)
	}
	return s, nil
}

// CheckSnapshot validates a snapshot against the schema, returning an
// error naming every violated entry.
func CheckSnapshot(snap Snapshot, schema Schema) error {
	var violations []string
	note := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}

	findInt := func(m map[string]int64, entry string) (int64, int, bool) {
		if v, ok := m[entry]; ok {
			return v, 1, true
		}
		var sum int64
		matches := 0
		for key, v := range m {
			if Family(key) == entry {
				sum += v
				matches++
			}
		}
		return sum, matches, matches > 0
	}
	findHist := func(entry string) (count, sum int64, ok bool) {
		if h, present := snap.Histograms[entry]; present {
			return h.Count, h.Sum, true
		}
		matches := 0
		for key, h := range snap.Histograms {
			if Family(key) == entry {
				count += h.Count
				sum += h.Sum
				matches++
			}
		}
		return count, sum, matches > 0
	}

	for _, entry := range schema.Counters {
		if _, _, ok := findInt(snap.Counters, entry); !ok {
			note("counter %q missing", entry)
		}
	}
	for _, entry := range schema.NonZeroCounters {
		v, _, ok := findInt(snap.Counters, entry)
		if !ok {
			note("counter %q missing", entry)
		} else if v <= 0 {
			note("counter %q is zero", entry)
		}
	}
	for _, entry := range schema.Gauges {
		if _, _, ok := findInt(snap.Gauges, entry); !ok {
			note("gauge %q missing", entry)
		}
	}
	for _, entry := range schema.Histograms {
		if _, _, ok := findHist(entry); !ok {
			note("histogram %q missing", entry)
		}
	}
	for _, entry := range schema.NonZeroHistograms {
		count, sum, ok := findHist(entry)
		if !ok {
			note("histogram %q missing", entry)
		} else if count <= 0 || sum <= 0 {
			note("histogram %q has no samples (count=%d sum=%d)", entry, count, sum)
		}
	}
	if len(violations) == 0 {
		return nil
	}
	msg := "obs: metrics dump violates schema:"
	for _, v := range violations {
		msg += "\n  " + v
	}
	return fmt.Errorf("%s", msg)
}
