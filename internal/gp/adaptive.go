package gp

import (
	"fmt"
	"math/rand"

	"hyperbal/internal/graph"
	"hyperbal/internal/partition"
)

// AdaptiveRepart repartitions g given the previous assignment oldPart,
// implementing the unified multilevel repartitioning scheme used by
// ParMETIS's AdaptiveRepart option (Schloegel, Karypis, Kumar: "A unified
// algorithm for load-balancing adaptive scientific simulations"):
//
//  1. Coarsen with partition-respecting heavy-edge matching (only vertices
//     in the same old part may match), so the inherited partition remains
//     meaningful at every level.
//  2. Use the inherited partition as the coarse solution; rebalance it with
//     forced moves if parts exceed their caps.
//  3. Refine at every level with the combined objective
//     itr*edgecut + migration, where itr plays the role of the paper's α
//     ("Our α corresponds to the ITR parameter in ParMETIS").
//
// The migration term charges size(v) for a vertex resting away from its
// old part, so refinement trades communication quality against data
// movement exactly as the repartitioner the paper benchmarks against.
func AdaptiveRepart(g *graph.Graph, oldPart partition.Partition, itr int64, opt Options) (partition.Partition, error) {
	opt = opt.WithDefaults()
	k := opt.K
	if len(oldPart.Parts) != g.NumVertices() {
		return partition.Partition{}, fmt.Errorf("gp: old partition covers %d vertices, graph has %d", len(oldPart.Parts), g.NumVertices())
	}
	for v, p := range oldPart.Parts {
		if p < 0 || int(p) >= k {
			return partition.Partition{}, fmt.Errorf("gp: old part %d of vertex %d out of range [0,%d)", p, v, k)
		}
	}
	out := partition.Partition{Parts: make([]int32, g.NumVertices()), K: k}
	if g.NumVertices() == 0 {
		return out, nil
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	old := append([]int32(nil), oldPart.Parts...)
	levels := coarsen(g, rng, max(CoarsenTo, 2*k), old)

	// Inherited coarse solution.
	coarsest := levels[len(levels)-1]
	parts := append([]int32(nil), coarsest.oldPart...)
	caps := partition.Caps(coarsest.g.TotalWeight(), k, opt.Imbalance)
	RefineKway(coarsest.g, k, parts, coarsest.oldPart, itr, caps, RefinePasses*2)

	for i := len(levels) - 2; i >= 0; i-- {
		parts = Project(levels[i].cmap, parts)
		caps := partition.Caps(levels[i].g.TotalWeight(), k, opt.Imbalance)
		RefineKway(levels[i].g, k, parts, levels[i].oldPart, itr, caps, RefinePasses)
	}
	copy(out.Parts, parts)
	return out, nil
}
