package harness

import (
	"context"
	"fmt"
	"time"

	"hyperbal/internal/core"
	"hyperbal/internal/datasets"
	"hyperbal/internal/gp"
	"hyperbal/internal/graph"
	"hyperbal/internal/hgp"
	"hyperbal/internal/mpinet"
	"hyperbal/internal/mpinet/jobs"
	"hyperbal/internal/partition"
	"hyperbal/internal/pgp"
	"hyperbal/internal/phg"
)

// ParallelRuntimeNet is ParallelRuntimeWith over the network transport:
// the same augmented problem, but every rank is a separate worker process
// reached through mpinet. The world size is len(workers). Stats per cell
// are the across-rank sums (and max, for stalls) of the per-rank reports,
// which is exactly what the shared in-process Stats accumulate — so cells
// from the two substrates are directly comparable, and by parallelism
// invariance the cuts (and the partitions behind them) must be identical.
func ParallelRuntimeNet(ctx context.Context, workers []string, dataset string, scaleV int, alpha, seed int64, opt mpinet.Options) ([]ParallelCell, error) {
	ranks := len(workers)
	g, err := datasets.Generate(dataset, scaleV, seed)
	if err != nil {
		return nil, err
	}
	h := graph.ToHypergraph(g)
	old, err := hgp.Partition(h, hgp.Options{K: ranks, Seed: seed})
	if err != nil {
		return nil, err
	}
	r, err := core.BuildRepartition(h, old, ranks, alpha)
	if err != nil {
		return nil, err
	}
	var cells []ParallelCell

	// Hypergraph pipeline (phg on the augmented hypergraph).
	payload, err := jobs.EncodePHG(r.H, phg.Options{Serial: hgp.Options{K: ranks, Seed: seed + 1}})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := mpinet.RunWorld(ctx, jobs.PHGPartition, payload, workers, opt)
	if err != nil {
		return nil, fmt.Errorf("harness: phg world: %w", err)
	}
	parts, err := jobs.DecodeParts(res.Root())
	if err != nil {
		return nil, err
	}
	cell := netCell(ranks, true, time.Since(start), res)
	cell.Cut = r.ModelCut(partitionFromParts(parts, ranks))
	cells = append(cells, cell)

	// Graph pipeline (pgp AdaptiveRepart with ITR = alpha).
	payload, err = jobs.EncodePGP(g, old.Parts, alpha, pgp.Options{Serial: gp.Options{K: ranks, Seed: seed + 2}}, true)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	res, err = mpinet.RunWorld(ctx, jobs.PGPPartition, payload, workers, opt)
	if err != nil {
		return nil, fmt.Errorf("harness: pgp world: %w", err)
	}
	parts, err = jobs.DecodeParts(res.Root())
	if err != nil {
		return nil, err
	}
	cell = netCell(ranks, false, time.Since(start), res)
	cell.Cut = r.ModelCut(r.Extend(partitionFromParts(parts, ranks)))
	cells = append(cells, cell)
	return cells, nil
}

func partitionFromParts(parts []int32, k int) partition.Partition {
	return partition.Partition{Parts: parts, K: k}
}

func netCell(ranks int, hg bool, wall time.Duration, res *mpinet.WorldResult) ParallelCell {
	c := ParallelCell{Ranks: ranks, Hypergraph: hg, WallTime: wall}
	for _, r := range res.Ranks {
		c.Messages += r.Messages
		c.Bytes += r.Bytes
		c.Collectives += r.Collectives
		if r.MaxStall > c.MaxStall {
			c.MaxStall = r.MaxStall
		}
	}
	return c
}
