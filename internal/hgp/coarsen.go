package hgp

import (
	"math/rand"
	"time"

	"hyperbal/internal/hypergraph"
)

// level holds one rung of the multilevel hierarchy.
type level struct {
	h    *hypergraph.Hypergraph
	cmap []int32 // fine vertex -> coarse vertex in the next level
}

// coarsen builds the hierarchy of successively smaller hypergraphs
// (Section 4.1). levels[0].h is the input; the last entry's cmap is nil and
// its h is the coarsest hypergraph. Coarsening stops when the vertex count
// drops to coarsenTo or a round shrinks the hypergraph by less than
// minShrink.
func coarsen(h *hypergraph.Hypergraph, rng *rand.Rand, coarsenTo int, minShrink float64, maxNetSize int, filterFixed bool, ws *workspace) []level {
	levels := []level{{h: h}}
	cur := h
	for cur.NumVertices() > coarsenTo {
		start := time.Now()
		match := ipmMatch(cur, rng, maxNetSize, filterFixed, ws)
		coarse, cmap := contractWS(cur, match, ws)
		shrink := 1 - float64(coarse.NumVertices())/float64(cur.NumVertices())
		lvl := len(levels) - 1
		obsCoarsenNs.At(lvl).ObserveSince(start)
		obsLevelShrink.At(lvl).Observe(int64(shrink * 1000))
		if shrink < minShrink {
			break // unsuccessful coarsening; stop early
		}
		obsLevels.Inc()
		levels[len(levels)-1].cmap = cmap
		levels = append(levels, level{h: coarse})
		cur = coarse
	}
	return levels
}

// project lifts a partition of the coarse hypergraph to the fine one
// through cmap.
func project(cmap []int32, coarseParts []int32) []int32 {
	fine := make([]int32, len(cmap))
	for v, c := range cmap {
		fine[v] = coarseParts[c]
	}
	return fine
}
