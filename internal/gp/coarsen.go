package gp

import (
	"math/rand"

	"hyperbal/internal/graph"
)

// level is one rung of the multilevel hierarchy.
type level struct {
	g    *graph.Graph
	cmap []int32
	// oldPart carries the inherited partition labels for adaptive
	// repartitioning (nil for scratch partitioning).
	oldPart []int32
}

// HEM computes a heavy-edge matching: visit vertices in random order, match
// each unmatched vertex to its unmatched neighbor with the heaviest
// connecting edge. If samePart is non-nil, only vertices with equal
// samePart labels may match (partition-respecting coarsening for adaptive
// repartitioning).
func HEM(g *graph.Graph, rng *rand.Rand, samePart []int32) []int32 {
	n := g.NumVertices()
	match := make([]int32, n)
	for v := range match {
		match[v] = -1
	}
	for _, v := range rng.Perm(n) {
		if match[v] != -1 {
			continue
		}
		adj, wts := g.Adj(v), g.AdjWeights(v)
		best := -1
		var bestW int64 = -1
		for i, u := range adj {
			if match[u] != -1 {
				continue
			}
			if samePart != nil && samePart[v] != samePart[u] {
				continue
			}
			if wts[i] > bestW {
				bestW = wts[i]
				best = int(u)
			}
		}
		if best >= 0 {
			match[v] = int32(best)
			match[best] = int32(v)
		} else {
			match[v] = int32(v)
		}
	}
	return match
}

// Contract builds the coarse graph for a matching; returns the coarse graph,
// the coarse map and coarse oldPart labels (nil when oldPart is nil).
func Contract(g *graph.Graph, match []int32, oldPart []int32) (*graph.Graph, []int32, []int32) {
	n := g.NumVertices()
	cmap := make([]int32, n)
	for v := range cmap {
		cmap[v] = -1
	}
	numCoarse := 0
	for v := 0; v < n; v++ {
		if cmap[v] != -1 {
			continue
		}
		u := int(match[v])
		cmap[v] = int32(numCoarse)
		if u != v {
			cmap[u] = int32(numCoarse)
		}
		numCoarse++
	}
	b := graph.NewBuilder(numCoarse)
	var coarseOld []int32
	if oldPart != nil {
		coarseOld = make([]int32, numCoarse)
	}
	wsum := make([]int64, numCoarse)
	ssum := make([]int64, numCoarse)
	for v := 0; v < n; v++ {
		c := cmap[v]
		wsum[c] += g.Weight(v)
		ssum[c] += g.Size(v)
		if coarseOld != nil {
			coarseOld[c] = oldPart[v]
		}
	}
	for c := 0; c < numCoarse; c++ {
		b.SetWeight(c, wsum[c])
		b.SetSize(c, ssum[c])
	}
	// Each undirected fine edge appears as two CSR arcs; take it once via
	// the fine-order guard. AddEdge accumulates parallel coarse edges and
	// drops self-loops (edges internal to a coarse vertex).
	for v := 0; v < n; v++ {
		adj, wts := g.Adj(v), g.AdjWeights(v)
		cv := cmap[v]
		for i, u := range adj {
			if int(u) > v && cmap[u] != cv {
				b.AddEdge(int(cv), int(cmap[u]), wts[i])
			}
		}
	}
	return b.Build(), cmap, coarseOld
}

// coarsen builds the hierarchy until the graph is small or a level shrinks
// it by less than MinShrink.
func coarsen(g *graph.Graph, rng *rand.Rand, coarsenTo int, oldPart []int32) []level {
	levels := []level{{g: g, oldPart: oldPart}}
	cur, curOld := g, oldPart
	for cur.NumVertices() > coarsenTo {
		match := HEM(cur, rng, curOld)
		coarse, cmap, coarseOld := Contract(cur, match, curOld)
		if 1-float64(coarse.NumVertices())/float64(cur.NumVertices()) < MinShrink {
			break
		}
		levels[len(levels)-1].cmap = cmap
		levels = append(levels, level{g: coarse, oldPart: coarseOld})
		cur, curOld = coarse, coarseOld
	}
	return levels
}

// Project lifts coarse parts to the fine level.
func Project(cmap []int32, coarseParts []int32) []int32 {
	fine := make([]int32, len(cmap))
	for v, c := range cmap {
		fine[v] = coarseParts[c]
	}
	return fine
}
