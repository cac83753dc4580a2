// Package gp implements the graph-partitioning baseline the paper compares
// against: a METIS-style serial multilevel graph partitioner (heavy-edge
// matching, greedy graph growing, boundary FM refinement, recursive
// bisection) and a ParMETIS-style adaptive repartitioner implementing the
// unified scheme of Schloegel, Karypis and Kumar with the ITR trade-off
// parameter (the paper's "ParMETIS-repart" with AdaptiveRepart, where
// "our α corresponds to the ITR parameter in ParMETIS").
//
// The implementation is graph-specialized: adjacency-array gains and no
// hypergraph machinery; its 2-way FM shares only the move-selection
// structure (internal/gaintree) with the hypergraph partitioner. It is not
// faster than the hypergraph pipeline across the board. In the Figure 7
// cell `repartbench -dataset xyce680s -procs 8 -alphas 10 -trials 20
// -epochs 3 -parallelism 1` on a 2-CPU host, ParMETIS-scratch (Partition)
// takes 37 ms per repartitioning against Zoltan-scratch's 29 ms, and
// ParMETIS-repart (AdaptiveRepart) 7 ms against Zoltan-repart's 41 ms.
package gp

import (
	"fmt"
	"math/rand"

	"hyperbal/internal/gaintree"
	"hyperbal/internal/graph"
	"hyperbal/internal/partition"
)

// Options control the multilevel graph partitioner.
type Options struct {
	K             int
	Imbalance     float64 // Eq. 1 epsilon
	Seed          int64
	CoarsenTo     int     // stop coarsening at this many vertices (default 100)
	MinShrink     float64 // abort coarsening below this shrink factor (default 0.1)
	InitialStarts int     // multi-start count at the coarsest level (default 8)
	RefinePasses  int     // FM pass bound per level (default 4)
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 1
	}
	if o.Imbalance <= 0 {
		o.Imbalance = 0.05
	}
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 100
	}
	if o.MinShrink <= 0 {
		o.MinShrink = 0.10
	}
	if o.InitialStarts <= 0 {
		o.InitialStarts = 8
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 4
	}
	return o
}

// Partition computes a k-way partition from scratch (the paper's
// "ParMETIS-scratch" / Partkway role) via multilevel recursive bisection.
func Partition(g *graph.Graph, opt Options) (partition.Partition, error) {
	opt = opt.withDefaults()
	if opt.K < 1 {
		return partition.Partition{}, fmt.Errorf("gp: K must be >= 1, got %d", opt.K)
	}
	p := partition.Partition{Parts: make([]int32, g.NumVertices()), K: opt.K}
	if opt.K == 1 || g.NumVertices() == 0 {
		return p, nil
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	vs := make([]int32, g.NumVertices())
	for v := range vs {
		vs[v] = int32(v)
	}
	recursiveBisect(g, vs, 0, opt.K, p.Parts, rng, opt)
	caps := capsFor(g, opt.K, opt.Imbalance)
	RefineKway(g, opt.K, p.Parts, nil, 0, caps, opt.RefinePasses)
	return p, nil
}

// recursiveBisect splits the sub-graph sub (sub index i == global vs[i])
// into parts [lo,hi) written to out.
func recursiveBisect(sub *graph.Graph, vs []int32, lo, hi int, out []int32, rng *rand.Rand, opt Options) {
	k := hi - lo
	if k <= 1 || sub.NumVertices() == 0 {
		for _, v := range vs {
			out[v] = int32(lo)
		}
		return
	}
	kLeft := (k + 1) / 2
	mid := lo + kLeft
	frac0 := float64(kLeft) / float64(k)

	sides := bisect(sub, rng, frac0, opt)

	if k == 2 {
		for i, v := range vs {
			out[v] = int32(lo + int(sides[i]))
		}
		return
	}
	left, leftVs := induce(sub, vs, sides, 0)
	right, rightVs := induce(sub, vs, sides, 1)
	recursiveBisect(left, leftVs, lo, mid, out, rng, opt)
	recursiveBisect(right, rightVs, mid, hi, out, rng, opt)
}

// bisect runs the multilevel 2-way pipeline on g.
func bisect(g *graph.Graph, rng *rand.Rand, frac0 float64, opt Options) []int32 {
	levels := coarsen(g, rng, max(opt.CoarsenTo, 4), opt.MinShrink, nil)
	coarsest := levels[len(levels)-1].g

	total := coarsest.TotalWeight()
	target0 := int64(float64(total) * frac0)
	eps := opt.Imbalance
	cap0 := int64(float64(total) * frac0 * (1 + eps))
	cap1 := int64(float64(total) * (1 - frac0) * (1 + eps))

	// One leaf order per level; the coarsest level's serves every start.
	var ord gaintree.Order
	ord.Build(coarsest.Weights())
	var best []int32
	var bestCut int64 = -1
	for s := 0; s < opt.InitialStarts; s++ {
		parts := ggp2(coarsest, rng, target0, cap0, &ord)
		cut := fm2(coarsest, parts, cap0, cap1, opt.RefinePasses, &ord)
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			best = append(best[:0], parts...)
		}
	}
	parts := best
	for i := len(levels) - 2; i >= 0; i-- {
		parts = Project(levels[i].cmap, parts)
		lt := levels[i].g.TotalWeight()
		lc0 := int64(float64(lt) * frac0 * (1 + eps))
		lc1 := int64(float64(lt) * (1 - frac0) * (1 + eps))
		ord.Build(levels[i].g.Weights())
		fm2(levels[i].g, parts, lc0, lc1, opt.RefinePasses, &ord)
	}
	return parts
}

// induce extracts the side subgraph with global id mapping.
func induce(g *graph.Graph, vs []int32, sides []int32, side int32) (*graph.Graph, []int32) {
	newID := make([]int32, g.NumVertices())
	for i := range newID {
		newID[i] = -1
	}
	var keepVs []int32
	for v := 0; v < g.NumVertices(); v++ {
		if sides[v] == side {
			newID[v] = int32(len(keepVs))
			keepVs = append(keepVs, vs[v])
		}
	}
	b := graph.NewBuilder(len(keepVs))
	for v := 0; v < g.NumVertices(); v++ {
		if newID[v] < 0 {
			continue
		}
		i := int(newID[v])
		b.SetWeight(i, g.Weight(v))
		b.SetSize(i, g.Size(v))
		adj, wts := g.Adj(v), g.AdjWeights(v)
		for j, u := range adj {
			if int(u) > v && newID[u] >= 0 {
				b.AddEdge(i, int(newID[u]), wts[j])
			}
		}
	}
	return b.Build(), keepVs
}

func capsFor(g *graph.Graph, k int, eps float64) []int64 {
	total := g.TotalWeight()
	caps := make([]int64, k)
	capv := int64(float64(total) / float64(k) * (1 + eps))
	if capv < 1 {
		capv = 1
	}
	for p := range caps {
		caps[p] = capv
	}
	return caps
}
