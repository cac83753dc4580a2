// Package harness drives the paper's Section 5 experiments end to end:
// generate a dataset analogue, compute the epoch-1 static partition, run a
// sequence of dynamic epochs (structural perturbation or simulated mesh
// refinement), repartition each epoch with each of the four algorithms,
// and aggregate the normalized total cost (communication volume +
// migration volume / α) and run time per (procs, α, method) cell — the
// exact quantities plotted in Figures 2 through 8.
package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"hyperbal/internal/core"
	"hyperbal/internal/datasets"
	"hyperbal/internal/dynamics"
	"hyperbal/internal/graph"
	"hyperbal/internal/partition"
)

// Config describes one experiment (one dataset × one dynamic, swept over
// procs and alpha, averaged over trials).
type Config struct {
	Dataset string // datasets registry name
	ScaleV  int    // vertex count (0 = registry default)
	Dynamic string // "structure" (biased perturbation) or "weights" (refinement)
	Procs   []int
	Alphas  []int64
	Methods []core.Method
	Trials  int // paper: 20; default 3
	Epochs  int // repartitions per trial; default 3
	Seed    int64
	// Parallelism bounds the worker goroutines sweeping (procs, alpha,
	// method, trial) cells. Every value produces identical reports; 1
	// forces the serial sweep. Default runtime.GOMAXPROCS(0).
	Parallelism int
	// Warm repartitions each epoch via the delta/warm-start path: the
	// epoch transition is expressed as a hypergraph delta, its dirty
	// region seeds core.Balancer.RepartitionWarm. Only the hypergraph
	// repartitioning method takes a distinct path; the others fall back to
	// their normal repartition internally.
	Warm bool
}

func (c Config) withDefaults() Config {
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.Epochs <= 0 {
		c.Epochs = 3
	}
	if len(c.Procs) == 0 {
		c.Procs = []int{8, 16, 32}
	}
	if len(c.Alphas) == 0 {
		c.Alphas = []int64{1, 10, 100, 1000}
	}
	if len(c.Methods) == 0 {
		c.Methods = append([]core.Method(nil), core.Methods...)
	}
	if c.Dynamic == "" {
		c.Dynamic = "structure"
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// Cell aggregates one (procs, alpha, method) bar of a figure.
type Cell struct {
	Procs  int
	Alpha  int64
	Method core.Method

	// Per-epoch averages across trials.
	CommVolume      float64 // bottom bar segment
	MigrationVolume float64
	MigOverAlpha    float64 // top bar segment (migration / alpha)
	NormalizedCost  float64 // CommVolume + MigOverAlpha
	Imbalance       float64 // achieved imbalance of the new partitions
	RepartTime      time.Duration
	Epochs          int // samples aggregated
}

// Report is a full experiment result.
type Report struct {
	Config Config
	Cells  []Cell
	// DatasetStats records the generated analogue's shape for Table 1
	// comparison.
	DatasetStats graph.Stats
}

// Run executes the experiment.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if _, err := datasets.Lookup(cfg.Dataset); err != nil {
		return nil, err
	}
	if cfg.Dynamic != "structure" && cfg.Dynamic != "weights" {
		return nil, fmt.Errorf("harness: unknown dynamic %q (want structure or weights)", cfg.Dynamic)
	}
	rep := &Report{Config: cfg}

	type key struct {
		procs  int
		alpha  int64
		method core.Method
	}
	acc := map[key]*Cell{}
	for _, procs := range cfg.Procs {
		for _, alpha := range cfg.Alphas {
			for _, m := range cfg.Methods {
				acc[key{procs, alpha, m}] = &Cell{Procs: procs, Alpha: alpha, Method: m}
			}
		}
	}

	// Generate the per-trial graphs up front (cheap and serial), then sweep
	// the independent (trial, procs, alpha, method) cells on a bounded
	// worker pool. Each task accumulates into a private Cell; the merge into
	// acc happens in task order afterwards, so the floating-point sums — and
	// hence the whole report — are identical for every Parallelism value.
	graphs := make([]*graph.Graph, cfg.Trials)
	for trial := 0; trial < cfg.Trials; trial++ {
		seed := cfg.Seed + int64(trial)*104729
		g, err := datasets.Generate(cfg.Dataset, cfg.ScaleV, seed)
		if err != nil {
			return nil, err
		}
		graphs[trial] = g
		if trial == 0 {
			rep.DatasetStats = graph.ComputeStats(g)
		}
	}

	type task struct {
		trial  int
		procs  int
		alpha  int64
		method core.Method
		cell   Cell
		err    error
	}
	var tasks []*task
	for trial := 0; trial < cfg.Trials; trial++ {
		for _, procs := range cfg.Procs {
			for _, alpha := range cfg.Alphas {
				for _, m := range cfg.Methods {
					tasks = append(tasks, &task{trial: trial, procs: procs, alpha: alpha, method: m})
				}
			}
		}
	}
	workers := cfg.Parallelism
	if workers > len(tasks) {
		workers = len(tasks)
	}
	run := func(t *task) {
		seed := cfg.Seed + int64(t.trial)*104729
		t.cell = Cell{Procs: t.procs, Alpha: t.alpha, Method: t.method}
		t.err = runSequence(cfg, graphs[t.trial], t.procs, t.alpha, t.method, seed, &t.cell)
	}
	if workers <= 1 {
		for _, t := range tasks {
			run(t)
		}
	} else {
		ch := make(chan *task)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := range ch {
					run(t)
				}
			}()
		}
		for _, t := range tasks {
			ch <- t
		}
		close(ch)
		wg.Wait()
	}
	for _, t := range tasks {
		if t.err != nil {
			return nil, fmt.Errorf("harness: %s procs=%d alpha=%d %v: %w",
				cfg.Dataset, t.procs, t.alpha, t.method, t.err)
		}
		c := acc[key{t.procs, t.alpha, t.method}]
		c.CommVolume += t.cell.CommVolume
		c.MigrationVolume += t.cell.MigrationVolume
		c.Imbalance += t.cell.Imbalance
		c.RepartTime += t.cell.RepartTime
		c.Epochs += t.cell.Epochs
	}
	// Finalize averages.
	for _, procs := range cfg.Procs {
		for _, alpha := range cfg.Alphas {
			for _, m := range cfg.Methods {
				c := acc[key{procs, alpha, m}]
				if c.Epochs > 0 {
					n := float64(c.Epochs)
					c.CommVolume /= n
					c.MigrationVolume /= n
					c.Imbalance /= n
					c.RepartTime = time.Duration(int64(c.RepartTime) / int64(c.Epochs))
				}
				c.MigOverAlpha = c.MigrationVolume / float64(alpha)
				c.NormalizedCost = c.CommVolume + c.MigOverAlpha
				rep.Cells = append(rep.Cells, *c)
			}
		}
	}
	return rep, nil
}

// runSequence plays one trial's epoch loop for one (procs, alpha, method)
// cell, accumulating into cell.
func runSequence(cfg Config, g *graph.Graph, procs int, alpha int64, m core.Method, seed int64, cell *Cell) error {
	// Inner partitioner parallelism stays at 1: the harness already keeps
	// every worker busy with whole cells, and nested workers would only
	// oversubscribe. Results are identical either way.
	bal, err := core.NewBalancer(core.Config{
		K: procs, Alpha: alpha, Seed: seed*31 + int64(m), Method: m, Parallelism: 1,
	})
	if err != nil {
		return err
	}
	prob := core.Problem{G: g, H: graph.ToHypergraph(g)}
	static, err := bal.Partition(prob)
	if err != nil {
		return err
	}

	gen, err := newGenerator(cfg, g, static.Partition, procs, seed)
	if err != nil {
		return err
	}
	// Warm mode expresses each transition as a delta against the previous
	// epoch's hypergraph.
	var deltas *dynamics.Transitions
	if cfg.Warm {
		deltas = dynamics.NewTransitions(gen, prob.H)
	}
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		eprob, old := gen.Next()
		var res core.Result
		if cfg.Warm {
			res, err = bal.RepartitionWarm(eprob, old, int64(epoch), deltas.Dirty(eprob.H))
		} else {
			res, err = bal.Repartition(eprob, old, int64(epoch))
		}
		if err != nil {
			return err
		}
		if err := gen.Observe(res.Partition); err != nil {
			return err
		}
		w := partition.Weights(eprob.H, res.Partition)
		cell.CommVolume += float64(res.CommVolume)
		cell.MigrationVolume += float64(res.MigrationVolume)
		cell.Imbalance += partition.Imbalance(w)
		cell.RepartTime += res.RepartTime
		cell.Epochs++
	}
	return nil
}

func newGenerator(cfg Config, g *graph.Graph, init partition.Partition, k int, seed int64) (dynamics.Generator, error) {
	switch cfg.Dynamic {
	case "structure":
		return dynamics.NewStructural(g, init, k, dynamics.StructureVertices, dynamics.StructureParts, seed*17+3)
	case "weights":
		return dynamics.NewRefinement(g, init, k, dynamics.RefinedParts, dynamics.RefineMinFactor, dynamics.RefineMaxFactor, seed*17+5)
	default:
		return nil, fmt.Errorf("harness: unknown dynamic %q", cfg.Dynamic)
	}
}
