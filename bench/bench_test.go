package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmoke runs every workload at a tiny size, traced, twice on one seed,
// and holds the runner to BENCHMARK.json: the same workloads, the same
// metric names and units, finite values, and exact counts that repeat.
func TestSmoke(t *testing.T) {
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the runner has %d", len(spec.Workloads), len(workloads))
	}
	// BENCHMARK.json lists the end-to-end metrics that have a relative bound.
	bounded := 0
	for _, e := range endToEnd {
		if e.absolute {
			continue
		}
		if bounded < len(spec.EndToEnd) {
			if m := spec.EndToEnd[bounded]; m.Name != e.name || m.Unit != e.unit {
				t.Errorf("end-to-end metric %d: BENCHMARK.json has %s [%s], the runner %s [%s]", bounded, m.Name, m.Unit, e.name, e.unit)
			}
		}
		bounded++
	}
	if len(spec.EndToEnd) != bounded || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the runner %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), bounded, len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the runner %s [%s]",
				i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}

	cfg := runConfig{seed: 7, ops: 4, trace: true, tiny: true, dir: t.TempDir()}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the runner %q", i, spec.Workloads[i].Name, wl.name)
		}
		if !metricName.MatchString(wl.name) {
			t.Errorf("workload name %q is not a valid name", wl.name)
		}
		var runs [2]runResult
		for r := range runs {
			res, err := runWorkload(context.Background(), wl, cfg)
			if err != nil {
				t.Fatalf("%s: %v", wl.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != 2*cfg.ops {
				t.Errorf("%s: correct=%v attempted=%d failed=%d, want %d clean ops",
					wl.name, res.Correct, res.Attempted, res.Failed, 2*cfg.ops)
			}
			runs[r] = res
		}
		check := func(set map[string]metric, name, unit string) {
			m, ok := set[name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s not emitted", wl.name, name)
			case !metricName.MatchString(name):
				t.Errorf("%s: metric name %q is not a valid name", wl.name, name)
			case m.Unit != unit || unit == "":
				t.Errorf("%s: metric %s has unit %q, want %q", wl.name, name, m.Unit, unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: metric %s is %v", wl.name, name, m.Value)
			}
		}
		if len(runs[0].EndToEnd) != len(endToEnd) || len(runs[0].PerLayer) != len(perLayer) {
			t.Errorf("%s: emitted %d end-to-end and %d per-layer metrics, want %d and %d",
				wl.name, len(runs[0].EndToEnd), len(runs[0].PerLayer), len(endToEnd), len(perLayer))
		}
		for _, e := range endToEnd {
			check(runs[0].EndToEnd, e.name, e.unit)
			if v := runs[0].EndToEnd[e.name].Value; v <= 0 && !e.absolute {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", wl.name, e.name, v)
			}
		}
		for _, l := range perLayer {
			check(runs[0].PerLayer, l.name, l.unit)
			if a, b := runs[0].PerLayer[l.name].Value, runs[1].PerLayer[l.name].Value; l.exact && a != b {
				t.Errorf("%s: exact count %s differs between two runs of one seed: %v, %v", wl.name, l.name, a, b)
			}
		}
		for _, name := range []string{"norm_cost", "imbalance_max"} {
			if a, b := runs[0].EndToEnd[name].Value, runs[1].EndToEnd[name].Value; a != b {
				t.Errorf("%s: %s differs between two runs of one seed: %v, %v", wl.name, name, a, b)
			}
		}
	}
}

// flaky fails one solve: the op must count as failed and the pass go on.
type flaky struct {
	session
	calls int
}

func (f *flaky) solve(ctx context.Context, in epochIn, o *opTrace) (epochOut, error) {
	if f.calls++; f.calls == 2 {
		return epochOut{}, errors.New("injected")
	}
	return f.session.solve(ctx, in, o)
}

func TestFailedOpIsCountedAndThePassGoesOn(t *testing.T) {
	wl := findWorkload("serve-delta-warm").tiny()
	inst, err := setup(context.Background(), wl, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.teardown()
	inst.callers[0][0] = &flaky{session: inst.callers[0][0]}
	ps, err := measure(context.Background(), inst, nil, runConfig{seed: 7, ops: 17}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Ops 8 and 16 run on the session that failed op 2 and are compared with
	// the reference, so failed == 1 also says it stayed in step with the server.
	if ps.tried != 17 || ps.failed != 1 || ps.ops() != 16 || len(ps.refMS) != 3 {
		t.Errorf("attempted=%d failed=%d completed=%d references=%d, want 17, 1, 16, 3", ps.tried, ps.failed, ps.ops(), len(ps.refMS))
	}
}

// TestCompareAbsoluteRules: a run set that fails more ops, or is less
// balanced beyond eps, regresses even when every bounded metric is equal.
func TestCompareAbsoluteRules(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, failed int, imb float64) string {
		e2e := map[string]metric{"imbalance_max": {imb, "ratio"}}
		for _, e := range endToEnd {
			if !e.absolute {
				e2e[e.name] = metric{1, e.unit}
			}
		}
		var f resultFile
		for _, wl := range workloads {
			f.Runs = append(f.Runs, runResult{Workload: wl.name, Seconds: 12, Attempted: 100, Failed: failed, EndToEnd: e2e})
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 0, 0.06)
	for _, c := range []struct {
		name      string
		failed    int
		imb       float64
		regressed bool
	}{
		{"same", 0, 0.06, false},
		{"better balance", 0, 0.04, false},
		{"one failed op", 1, 0.06, true},
		{"worse balance", 0, 0.07, true},
	} {
		got, err := compareFiles(io.Discard, "../BENCHMARK.json", base, write("b.json", c.failed, c.imb))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.regressed {
			t.Errorf("%s: regressed = %v, want %v", c.name, got, c.regressed)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// == [3.5, 24.0, 160.0]
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v; want 3.5, 160", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
