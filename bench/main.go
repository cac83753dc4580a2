// Command bench is the repository's benchmark: six named workloads, from a
// library repartition call to served epochs to the parallel partitioner
// over TCP, each reporting the end-to-end metrics a caller sees and, in a
// traced run, where each layer spent the time. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// defaultSeed is the seed of a run that names none; holdOutSeed is reserved
// for confirming a claim on inputs not seen while working on it. (README.md's
// baseline is the contract's ten runs on ten seeds, 700 to 709.)
const (
	defaultSeed = 1
	holdOutSeed = 20070326
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the one-line result the benchmark contract asks for.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runResult is one run of one workload as the -out file keeps it.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Samples   int               `json:"samples"` // timed ops behind the percentiles
	Error     string            `json:"error,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	SpanFile  string            `json:"span_file,omitempty"`
}

// environment is recorded in every output file.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

type resultFile struct {
	Env   environment `json:"env"`
	Claim *string     `json:"claim"` // this benchmark reports; it claims nothing
	Runs  []runResult `json:"runs"`
}

func currentEnv() environment {
	env := environment{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown"}
	// go run stamps the commit only when asked: go run -buildvcs=true ./bench
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				env.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		env.Commit += dirty
	}
	return env
}

// specPath is the benchmark definition, relative to the repository root,
// which the runner is run from.
const specPath = "BENCHMARK.json"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: every workload in turn)")
		seed    = flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed (hold-out seed: %d)", holdOutSeed))
		seconds = flag.Float64("seconds", 12, "length of a timed pass")
		trace   = flag.Int("trace", 0, "1: also run the traced pass, report per-layer metrics and write the span file")
		runs    = flag.Int("runs", 0, "runs per workload (default: 1 with -workload, else 3)")
		out     = flag.String("out", filepath.Join(".bench_build", "result.json"), "result file; span files are written beside it")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []*workload{w}
	}
	if *runs == 0 {
		*runs = 3
		if *name != "" {
			*runs = 1
		}
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fatal(err)
	}
	file := resultFile{Env: currentEnv()}
	fmt.Printf("# env nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		file.Env.NumCPU, file.Env.GoMaxProcs, file.Env.GoVersion, file.Env.Commit)
	ok := true
	for _, w := range selected {
		for r := 0; r < *runs; r++ {
			cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: filepath.Dir(*out)}
			res, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				// One workload's set-up error or intent assertion must not
				// discard the runs before it: record it and go on.
				res.Correct, res.Error = false, err.Error()
				fmt.Printf("# ERROR %s: %v\n", w.name, err)
			}
			printRun(res)
			ok = ok && res.Correct
			file.Runs = append(file.Runs, res)
		}
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	if last := file.Runs[len(file.Runs)-1]; *name != "" && *runs == 1 && last.Error == "" {
		// The contract's last line: BENCHMARK.json's end-to-end metrics
		// untraced, its per-layer metrics traced.
		line := driverLine{Correct: last.Correct, Attempted: last.Attempted, Failed: last.Failed, Metrics: last.PerLayer}
		if !last.Trace {
			line.Metrics = make(map[string]metric)
			for _, e := range endToEnd {
				if !e.absolute {
					line.Metrics[e.name] = last.EndToEnd[e.name]
				}
			}
		}
		data, err := json.Marshal(line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: FAILED: an op, an output check or an intent assertion failed; see the # FAILED and # ERROR lines")
		os.Exit(1)
	}
}

func printRun(r runResult) {
	fmt.Printf("# %s seed=%d trace=%v attempted=%d failed=%d timed_ops=%d\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.Samples)
	for _, set := range []map[string]metric{r.EndToEnd, r.PerLayer} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-34s %14.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
