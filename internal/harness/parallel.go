package harness

import (
	"fmt"
	"io"
	"time"

	"hyperbal/internal/core"
	"hyperbal/internal/datasets"
	"hyperbal/internal/gp"
	"hyperbal/internal/graph"
	"hyperbal/internal/hgp"
	"hyperbal/internal/mpi"
	"hyperbal/internal/pgp"
	"hyperbal/internal/phg"
)

// ParallelCell is one (ranks, method) measurement of the parallel
// repartitioners: wall time plus substrate traffic (messages/bytes,
// collective counts, max stall), the machine-independent scalability
// signal on a single-core host where goroutine ranks cannot show real
// speedup.
type ParallelCell struct {
	Ranks       int
	Hypergraph  bool // true = phg (Zoltan-like), false = pgp (ParMETIS-like)
	WallTime    time.Duration
	Messages    int64
	Bytes       int64
	Collectives int64
	MaxStall    time.Duration
	Cut         int64
}

// ParallelRuntime times the parallel hypergraph and graph repartitioners
// on the same augmented problem at each rank count (cf. Figures 7-8 and
// the paper's closing scalability claim). alpha scales the communication
// nets of the hypergraph model; the graph side uses AdaptiveRepart with
// ITR = alpha. Worlds run under a generous watchdog, so a substrate hang
// surfaces as a DeadlockError instead of stalling the whole harness.
func ParallelRuntime(dataset string, scaleV int, rankCounts []int, alpha int64, seed int64) ([]ParallelCell, error) {
	return ParallelRuntimeWith(mpi.Options{Watchdog: 2 * time.Minute}, dataset, scaleV, rankCounts, alpha, seed)
}

// ParallelRuntimeWith is ParallelRuntime with explicit world options, so
// the whole Figure 7-8 pipeline can run under fault injection (chaos
// benchmarking) or with tracing hooks attached.
func ParallelRuntimeWith(opt mpi.Options, dataset string, scaleV int, rankCounts []int, alpha int64, seed int64) ([]ParallelCell, error) {
	g, err := datasets.Generate(dataset, scaleV, seed)
	if err != nil {
		return nil, err
	}
	h := graph.ToHypergraph(g)
	var cells []ParallelCell
	for _, ranks := range rankCounts {
		// Old partition: serial static at this k.
		old, err := hgp.Partition(h, hgp.Options{K: ranks, Seed: seed})
		if err != nil {
			return nil, err
		}
		r, err := core.BuildRepartition(h, old, ranks, alpha)
		if err != nil {
			return nil, err
		}

		// Hypergraph pipeline (phg on the augmented hypergraph).
		start := time.Now()
		var hgCut int64
		stats, err := mpi.RunWith(ranks, opt, func(c *mpi.Comm) error {
			p, err := phg.Partition(c, r.H, phg.Options{Serial: hgp.Options{K: ranks, Seed: seed + 1}})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				hgCut = r.ModelCut(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		cells = append(cells, ParallelCell{
			Ranks: ranks, Hypergraph: true, WallTime: time.Since(start),
			Messages: stats.Messages.Load(), Bytes: stats.Bytes.Load(),
			Collectives: stats.Collectives.Load(), MaxStall: stats.MaxStallDuration(),
			Cut: hgCut,
		})

		// Graph pipeline (pgp AdaptiveRepart with ITR = alpha).
		start = time.Now()
		var gCut int64
		stats, err = mpi.RunWith(ranks, opt, func(c *mpi.Comm) error {
			p, err := pgp.AdaptiveRepart(c, g, old, alpha, gp.Options{K: ranks, Seed: seed + 2})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				gCut = r.ModelCut(r.Extend(p))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		cells = append(cells, ParallelCell{
			Ranks: ranks, Hypergraph: false, WallTime: time.Since(start),
			Messages: stats.Messages.Load(), Bytes: stats.Bytes.Load(),
			Collectives: stats.Collectives.Load(), MaxStall: stats.MaxStallDuration(),
			Cut: gCut,
		})
	}
	return cells, nil
}

// WriteParallelRuntime renders the parallel-runtime cells.
func WriteParallelRuntime(w io.Writer, dataset string, cells []ParallelCell) {
	fmt.Fprintf(w, "Parallel repartitioner runtime and traffic: %s (cf. Figures 7-8; ranks are\n", dataset)
	fmt.Fprintf(w, "in-process goroutines, so traffic — not wall time — carries the scaling signal)\n\n")
	fmt.Fprintf(w, "%6s  %-12s %12s %10s %12s %12s %10s %14s\n",
		"ranks", "pipeline", "wall", "messages", "bytes", "collectives", "maxstall", "model cut")
	for _, c := range cells {
		name := "graph"
		if c.Hypergraph {
			name = "hypergraph"
		}
		fmt.Fprintf(w, "%6d  %-12s %12s %10d %12d %12d %10s %14d\n",
			c.Ranks, name, c.WallTime.Round(time.Millisecond), c.Messages, c.Bytes,
			c.Collectives, c.MaxStall.Round(time.Microsecond), c.Cut)
	}
}
