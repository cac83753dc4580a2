package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// values collects one metric of one workload over a file's runs.
func (f *resultFile) values(workload, name string, layer bool) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		set := r.EndToEnd
		if layer {
			set = r.PerLayer
		}
		if m, ok := set[name]; ok && r.Workload == workload {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// failFrac is a run set's failed ops over its attempted ops on one workload.
func (f *resultFile) failFrac(workload string) float64 {
	var failed, attempted int
	for _, r := range f.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// runLengths lists the distinct -seconds of a file's runs.
func (f *resultFile) runLengths() []float64 {
	var ls []float64
	for _, r := range f.Runs {
		if !slices.Contains(ls, r.Seconds) {
			ls = append(ls, r.Seconds)
		}
	}
	return ls
}

// compareFiles prints, for every end-to-end metric of every workload, both
// run sets' medians and quartiles, their relative difference and the bound,
// and reports whether B regressed against A anywhere. A pair whose own
// spread in A exceeds the bound is unresolved: the run sets cannot tell.
// fail_frac and imbalance_max have absolute rules: B's share of failed ops
// may not exceed A's, and B's worst imbalance may not exceed the larger of
// eps and A's.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (regressed bool, err error) {
	var spec benchSpec
	var a, b resultFile
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s (commit %s, %d runs)\nB: %s (commit %s, %d runs)\n",
		pathA, a.Env.Commit, len(a.Runs), pathB, b.Env.Commit, len(b.Runs))
	if la, lb := a.runLengths(), b.runLengths(); len(la) != 1 || !slices.Equal(la, lb) {
		return false, fmt.Errorf("run sets differ in run length (-seconds): A %v, B %v", la, lb)
	}
	for _, r := range b.Runs {
		if r.Error != "" { // a run that ended on a set-up error or an intent assertion
			fmt.Fprintf(w, "B: %s did not complete: %s  REGRESSION\n", r.Workload, r.Error)
			regressed = true
		}
	}
	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, "\n%s\n  %-20s %-7s %36s %36s %9s %7s  %s\n", wl.Name,
			"metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl.Name, m.Name, false), b.values(wl.Name, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "  %-20s missing from a run set\n", m.Name)
				continue
			}
			ma, mb := median(va), median(vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			diff := ratio(mb-ma, ma)
			worse := diff
			if m.Better == "higher" {
				worse = -diff
			}
			verdict := "ok"
			switch {
			case ratio(a3-a1, ma) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(w, "  %-20s %-7s %12.6g [%10.6g, %10.6g] %12.6g [%10.6g, %10.6g] %+8.2f%% %6.0f%%  %s\n",
				m.Name, m.Unit, ma, a1, a3, mb, b1, b3, 100*diff, 100*m.Bound, verdict)
		}
		absolute := func(name string, va, vb float64, rule string, worse bool) {
			verdict := "ok"
			if worse {
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(w, "  %-20s %-7s %12.6g %23s %12.6g %23s  B %-17s %s\n", name, "ratio", va, "", vb, "", rule, verdict)
		}
		fa, fb := a.failFrac(wl.Name), b.failFrac(wl.Name)
		absolute("fail_frac", fa, fb, "<= A", fb > fa)
		ia := slices.Max(append(a.values(wl.Name, "imbalance_max", false), 0))
		ib := slices.Max(append(b.values(wl.Name, "imbalance_max", false), 0))
		absolute("imbalance_max", ia, ib, fmt.Sprintf("<= max(%g, A)", benchEps), ib > max(benchEps, ia)+1e-12)
		// Exact counts either repeat or the program changed; say which.
		for _, l := range perLayer {
			va, vb := a.values(wl.Name, l.name, true), b.values(wl.Name, l.name, true)
			if !l.exact || len(va) == 0 || len(vb) == 0 {
				continue
			}
			for _, v := range append(va[1:], vb...) {
				if v != va[0] {
					fmt.Fprintf(w, "  %-34s count differs: A %v, B %v\n", l.name, va, vb)
					break
				}
			}
		}
	}
	return regressed, nil
}
