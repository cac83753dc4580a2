// Command repartbench regenerates the paper's evaluation (Section 5):
// Table 1 (dataset properties), Figures 2-6 (normalized total cost per
// dataset under both dynamics) and Figures 7-8 (run times), on synthetic
// dataset analogues at laptop scale.
//
// Usage:
//
//	repartbench -table1
//	repartbench -figure 2              # both sub-figures of Figure 2
//	repartbench -figure 7              # runtime figure
//	repartbench -all                   # everything (long)
//	repartbench -dataset auto -dynamic weights -procs 8,16 -alphas 1,100
//
// Flags -trials, -epochs, -scale tune fidelity vs run time (the paper used
// 20 trials on a 64-node cluster; defaults here are scaled down).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"hyperbal/internal/harness"
	"hyperbal/internal/obs"
)

func main() {
	var (
		table1      = flag.Bool("table1", false, "print Table 1 (paper datasets vs generated analogues)")
		figure      = flag.Int("figure", 0, "regenerate one paper figure (2-8)")
		all         = flag.Bool("all", false, "regenerate every table and figure")
		dataset     = flag.String("dataset", "", "run a single dataset experiment (registry name)")
		dynamic     = flag.String("dynamic", "structure", "dynamic for -dataset: structure | weights")
		procs       = flag.String("procs", "8,16,32", "comma-separated part counts")
		alphas      = flag.String("alphas", "1,10,100,1000", "comma-separated alpha values")
		par         = flag.Bool("parallel", false, "time the parallel partitioners (phg vs pgp) at each -procs rank count")
		trials      = flag.Int("trials", 3, "trials per configuration (paper: 20)")
		epochs      = flag.Int("epochs", 3, "repartitioning epochs per trial")
		scale       = flag.Int("scale", 0, "vertex count override (0 = dataset default)")
		seed        = flag.Int64("seed", 1, "base random seed")
		warm        = flag.Bool("warm", false, "repartition each epoch via the delta/warm-start path (hypergraph repartitioning only; others run normally)")
		parallelism = flag.Int("parallelism", 0, "worker goroutines for the sweep (0 = GOMAXPROCS; results identical for every value)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file on exit")

		metricsAddr   = flag.String("metrics-addr", "", "serve /metrics (Prometheus text, ?format=json) and /debug/pprof on this address (e.g. :9090)")
		metricsJSON   = flag.String("metrics-json", "", `write a JSON metrics snapshot to this file on exit ("-" = stdout)`)
		metricsSchema = flag.String("metrics-schema", "", "validate the exit metrics snapshot against this schema file (CI golden check)")
	)
	flag.Parse()

	if *metricsAddr != "" {
		bound, shutdown, err := obs.Serve(*metricsAddr, obs.Default())
		check(err)
		defer shutdown()
		fmt.Fprintf(os.Stderr, "repartbench: metrics on http://%s/metrics\n", bound)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			check(err)
			defer f.Close()
			check(pprof.Lookup("allocs").WriteTo(f, 0))
		}()
	}

	ps, err := parseInts(*procs)
	check(err)
	as, err := parseInt64s(*alphas)
	check(err)

	base := harness.Config{
		Procs: ps, Alphas: as, Trials: *trials, Epochs: *epochs,
		Seed: *seed, ScaleV: *scale, Parallelism: *parallelism, Warm: *warm,
	}

	switch {
	case *par:
		name := *dataset
		if name == "" {
			name = "auto"
		}
		alpha := as[0]
		cells, err := harness.ParallelRuntime(name, *scale, ps, alpha, *seed)
		check(err)
		harness.WriteParallelRuntime(os.Stdout, name, cells)
	case *table1:
		check(harness.WriteTable1(os.Stdout, *seed))
	case *all:
		check(harness.WriteTable1(os.Stdout, *seed))
		fmt.Println()
		for fig := 2; fig <= 8; fig++ {
			check(runFigure(base, fig))
		}
	case *figure != 0:
		check(runFigure(base, *figure))
	case *dataset != "":
		cfg := base
		cfg.Dataset = *dataset
		cfg.Dynamic = *dynamic
		rep, err := harness.Run(cfg)
		check(err)
		rep.WriteFigure(os.Stdout)
		rep.WriteRuntimeFigure(os.Stdout)
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *metricsJSON != "" {
		check(obs.DumpJSONFile(*metricsJSON, obs.Default()))
	}
	if *metricsSchema != "" {
		schema, err := obs.ReadSchema(*metricsSchema)
		check(err)
		check(obs.CheckSnapshot(obs.Default().Snapshot(), schema))
	}
}

// runFigure regenerates one paper figure.
func runFigure(base harness.Config, fig int) error {
	switch fig {
	case 2, 3, 4, 5, 6:
		name := map[int]string{2: "xyce680s", 3: "2DLipid", 4: "auto", 5: "apoa1-10", 6: "cage14"}[fig]
		for _, dyn := range []string{"structure", "weights"} {
			cfg := base
			cfg.Dataset = name
			cfg.Dynamic = dyn
			rep, err := harness.Run(cfg)
			if err != nil {
				return err
			}
			rep.WriteFigure(os.Stdout)
		}
		return nil
	case 7:
		cfg := base
		cfg.Dataset = "xyce680s"
		cfg.Dynamic = "structure"
		rep, err := harness.Run(cfg)
		if err != nil {
			return err
		}
		rep.WriteRuntimeFigure(os.Stdout)
		return nil
	case 8:
		for _, name := range []string{"2DLipid", "auto"} {
			cfg := base
			cfg.Dataset = name
			cfg.Dynamic = "structure"
			rep, err := harness.Run(cfg)
			if err != nil {
				return err
			}
			rep.WriteRuntimeFigure(os.Stdout)
		}
		return nil
	default:
		return fmt.Errorf("no such figure %d (paper has 2-8)", fig)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		x, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

func parseInt64s(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		x, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "repartbench:", err)
		os.Exit(1)
	}
}
