// Command epochsim runs a full simulated application campaign: generate a
// dataset, partition it, then alternate epochs of (dynamics -> rebalance
// -> REAL message-passing execution) measuring, not modeling, the
// communication and migration traffic. It validates the central premise —
// measured traffic equals the connectivity-1 cut — and reports the total
// execution time estimate t_tot = α(t_comp + t_comm) + t_mig + t_repart
// per method.
//
// Usage:
//
//	epochsim -dataset auto -n 2000 -k 8 -alpha 100 -epochs 4 \
//	         -dynamic structure -method all
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hyperbal/internal/appsim"
	"hyperbal/internal/core"
	"hyperbal/internal/datasets"
	"hyperbal/internal/dynamics"
	"hyperbal/internal/graph"
	"hyperbal/internal/obs"
	"hyperbal/internal/partition"
)

func main() {
	var (
		dataset = flag.String("dataset", "auto", "dataset analogue to simulate")
		n       = flag.Int("n", 2000, "vertex count")
		k       = flag.Int("k", 8, "parts (= simulated ranks)")
		alpha   = flag.Int64("alpha", 100, "iterations per epoch")
		epochs  = flag.Int("epochs", 4, "number of rebalance epochs")
		dynamic = flag.String("dynamic", "structure", "structure | weights")
		method  = flag.String("method", "all", "Zoltan-repart | ParMETIS-repart | Zoltan-scratch | ParMETIS-scratch | all")
		iters   = flag.Int("iters", 3, "actually executed iterations per epoch (traffic scales to alpha)")
		seed    = flag.Int64("seed", 1, "random seed")
		warm    = flag.Bool("warm", false, "repartition each epoch via the delta/warm-start path (hypergraph repartitioning only; others run normally)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus text), /metrics.json and /debug/pprof on this address")
		metricsJSON = flag.String("metrics-json", "", `write a JSON metrics snapshot to this file on exit ("-" = stdout)`)
	)
	flag.Parse()

	if *metricsAddr != "" {
		bound, shutdown, err := obs.Serve(*metricsAddr, obs.Default())
		check(err)
		defer shutdown()
		fmt.Fprintf(os.Stderr, "epochsim: metrics on http://%s/metrics\n", bound)
	}

	g, err := datasets.Generate(*dataset, *n, *seed)
	check(err)
	fmt.Printf("epochsim: %s analogue |V|=%d |E|=%d, k=%d, α=%d, %d epochs, %s dynamics\n\n",
		*dataset, g.NumVertices(), g.NumEdges(), *k, *alpha, *epochs, *dynamic)

	methods := core.Methods
	if *method != "all" {
		found := false
		for _, m := range core.Methods {
			if m.String() == *method {
				methods = []core.Method{m}
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "epochsim: unknown method %q\n", *method)
			os.Exit(2)
		}
	}

	fmt.Printf("%-18s %10s %10s %12s %10s %12s\n",
		"method", "meas.comm", "meas.mig", "model t_tot", "repart", "mismatches")
	for _, m := range methods {
		runCampaign(g, m, *k, *alpha, *epochs, *iters, *dynamic, *seed, *warm)
	}
	fmt.Println("\nmeas.comm / meas.mig: words actually exchanged on the message-passing")
	fmt.Println("substrate; 'mismatches' counts epochs where measured traffic differed")
	fmt.Println("from the partition's connectivity-1 cut (must be 0).")

	if *metricsJSON != "" {
		check(obs.DumpJSONFile(*metricsJSON, obs.Default()))
	}
}

func runCampaign(g *graph.Graph, m core.Method, k int, alpha int64, epochs, iters int, dynamic string, seed int64, warm bool) {
	bal, err := core.NewBalancer(core.Config{K: k, Alpha: alpha, Seed: seed, Method: m})
	check(err)
	prob := core.Problem{G: g, H: graph.ToHypergraph(g)}
	static, err := bal.Partition(prob)
	check(err)

	var gen dynamics.Generator
	switch dynamic {
	case "structure":
		gen, err = dynamics.NewStructural(g, static.Partition, k, dynamics.StructureVertices, dynamics.StructureParts, seed*3+1)
	case "weights":
		gen, err = dynamics.NewRefinement(g, static.Partition, k, dynamics.RefinedParts, dynamics.RefineMinFactor, dynamics.RefineMaxFactor, seed*3+2)
	default:
		err = fmt.Errorf("unknown dynamic %q", dynamic)
	}
	check(err)

	var measComm, measMig int64
	var repartTime time.Duration
	var modelSeconds float64
	mismatches := 0
	model := core.DefaultCostModel

	// Warm mode rebuilds each epoch transition as a hypergraph delta and
	// seeds the repartition from the inherited distribution plus the
	// delta's dirty region.
	var deltas *dynamics.Transitions
	if warm {
		deltas = dynamics.NewTransitions(gen, prob.H)
	}
	for e := 1; e <= epochs; e++ {
		eprob, old := gen.Next()
		var res core.Result
		if warm {
			res, err = bal.RepartitionWarm(eprob, old, int64(e), deltas.Dirty(eprob.H))
		} else {
			res, err = bal.Repartition(eprob, old, int64(e))
		}
		check(err)
		check(gen.Observe(res.Partition))

		sim, err := appsim.Simulate(eprob.H, &old, res.Partition, iters)
		check(err)
		if sim.WordsPerIteration != partition.CutSize(eprob.H, res.Partition) {
			mismatches++
		}
		measComm += sim.WordsPerIteration * alpha // scale executed iters to alpha
		measMig += sim.MigratedWords
		repartTime += res.RepartTime
		modelSeconds += model.Evaluate(res, alpha).Total()
	}
	fmt.Printf("%-18s %10d %10d %11.3fs %9dms %12d\n",
		m, measComm, measMig, modelSeconds, repartTime.Milliseconds(), mismatches)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "epochsim:", err)
		os.Exit(1)
	}
}
