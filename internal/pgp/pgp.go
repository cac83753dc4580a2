// Package pgp is the parallel counterpart of internal/gp's adaptive
// repartitioner: a ParMETIS-like parallel multilevel graph repartitioner
// running SPMD over the internal/mpi substrate. It completes the Figures 7-8
// comparison so the hypergraph (phg) and graph (pgp) pipelines are timed
// under the same execution model: candidate-round matching restricted to
// equal old-part labels, the inherited old partition as the coarse
// solution, propose/exchange refinement.
//
// The graph pipeline stays deliberately lighter-weight than phg —
// adjacency-array scoring rather than net traversal — preserving the
// paper's run-time relationship ("graph-based approaches 10 to 15 times
// faster" on medium-dense problems, at a quality cost).
package pgp

import (
	"fmt"
	"math/rand"
	"time"

	"hyperbal/internal/gp"
	"hyperbal/internal/graph"
	"hyperbal/internal/mpi"
	"hyperbal/internal/partition"
)

// The round protocol's bounds, as in phg.
const (
	// matchRounds bounds candidate-matching rounds per level. It rarely
	// binds: a level's rounds end at the matching fixpoint.
	matchRounds = 10
	// movesPerRound bounds refinement proposals per rank per exchange.
	movesPerRound = 128
	// refineRounds bounds proposal exchanges per level.
	refineRounds = 12
)

// AdaptiveRepart runs the unified adaptive repartitioning scheme in
// parallel: partition-respecting coarsening, inherited coarse solution,
// combined-objective (itr) refinement. Every rank calls with identical
// arguments and receives the identical result.
func AdaptiveRepart(c *mpi.Comm, g *graph.Graph, old partition.Partition, itr int64, opt gp.Options) (partition.Partition, error) {
	if len(old.Parts) != g.NumVertices() {
		return partition.Partition{}, fmt.Errorf("pgp: old partition covers %d vertices, graph has %d",
			len(old.Parts), g.NumVertices())
	}
	k := opt.K
	if k < 1 {
		return partition.Partition{}, fmt.Errorf("pgp: K must be >= 1")
	}
	p := partition.Partition{Parts: make([]int32, g.NumVertices()), K: k}
	if k == 1 || g.NumVertices() == 0 {
		return p, nil
	}
	oldPart := old.Parts
	rng := rand.New(rand.NewSource(opt.Seed*999983 + int64(c.Rank())))

	def := opt.WithDefaults()
	coarsenTo := max(def.CoarsenTo, 2*k)

	type level struct {
		g       *graph.Graph
		cmap    []int32
		oldPart []int32
	}
	levels := []level{{g: g, oldPart: oldPart}}
	cur, curOld := g, oldPart
	for cur.NumVertices() > coarsenTo {
		start := time.Now()
		match := parallelHEM(c, cur, curOld, rng)
		coarse, cmap, coarseOld := gp.Contract(cur, match, curOld)
		obsCoarsenNs.At(len(levels) - 1).ObserveSince(start)
		if 1-float64(coarse.NumVertices())/float64(cur.NumVertices()) < gp.MinShrink {
			break
		}
		levels[len(levels)-1].cmap = cmap
		levels = append(levels, level{g: coarse, oldPart: coarseOld})
		cur, curOld = coarse, coarseOld
	}

	// The coarse solution is the contracted old partition, identical on
	// every rank.
	parts := append([]int32(nil), levels[len(levels)-1].oldPart...)

	caps := partition.Caps(g.TotalWeight(), k, def.Imbalance)
	for i := len(levels) - 1; i >= 0; i-- {
		refineStart := time.Now()
		if i < len(levels)-1 {
			parts = gp.Project(levels[i].cmap, parts)
		}
		parallelRefine(c, levels[i].g, k, parts, levels[i].oldPart, itr, caps)
		obsRefineNs.At(i).ObserveSince(refineStart)
	}
	copy(p.Parts, parts)
	return p, nil
}

func blockRange(n, size, r int) (int, int) {
	per := n / size
	rem := n % size
	lo := r*per + minInt(r, rem)
	hi := lo + per
	if r < rem {
		hi++
	}
	return lo, hi
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
