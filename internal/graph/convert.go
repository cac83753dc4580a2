package graph

import (
	"hyperbal/internal/hypergraph"
)

// FromHypergraph converts a hypergraph to a graph by clique expansion:
// every net of size s contributes an edge between each pair of its pins.
// Edge weights follow the standard 1/(s-1) scaling (rounded up, minimum 1)
// so that cutting a clique roughly reflects the net's cost, matching how
// graph partitioners are typically fed hypergraph problems. Vertex weights
// and sizes carry over unchanged.
//
// Nets larger than maxClique are expanded as rings instead of cliques to
// keep the edge count bounded (dense nets would otherwise explode
// quadratically); this mirrors common practice in graph-model baselines.
func FromHypergraph(h *hypergraph.Hypergraph, maxClique int) *Graph {
	if maxClique < 2 {
		maxClique = 2
	}
	b := NewBuilder(h.NumVertices())
	for v := 0; v < h.NumVertices(); v++ {
		b.SetWeight(v, h.Weight(v))
		b.SetSize(v, h.Size(v))
	}
	for n := 0; n < h.NumNets(); n++ {
		pins := h.Pins(n)
		s := len(pins)
		if s < 2 {
			continue
		}
		w := h.Cost(n) / int64(s-1)
		if w < 1 {
			w = 1
		}
		if s <= maxClique {
			for i := 0; i < s; i++ {
				for j := i + 1; j < s; j++ {
					b.AddEdge(int(pins[i]), int(pins[j]), w)
				}
			}
		} else {
			for i := 0; i < s; i++ {
				b.AddEdge(int(pins[i]), int(pins[(i+1)%s]), w)
			}
		}
	}
	return b.Build()
}

// ToHypergraph converts a graph to a hypergraph with one two-pin net per
// undirected edge, net cost = edge weight. This is the exact hypergraph
// representation of a structurally symmetric problem, as used for the
// paper's test datasets ("all these problems are structurally symmetric,
// and can be accurately represented as both graphs and hypergraphs").
func ToHypergraph(g *Graph) *hypergraph.Hypergraph {
	n, m := g.NumVertices(), g.NumEdges()
	netStart := make([]int32, m+1)
	netPins := make([]int32, 0, 2*m)
	costs := make([]int64, 0, m)
	for u := 0; u < n; u++ {
		adj, wts := g.Adj(u), g.AdjWeights(u)
		for i, v := range adj {
			if int(v) > u { // each undirected edge once
				netPins = append(netPins, int32(u), v)
				costs = append(costs, wts[i])
				netStart[len(costs)] = int32(len(netPins))
			}
		}
	}
	weights := append([]int64(nil), g.vwgt...)
	sizes := append([]int64(nil), g.vsize...)
	return hypergraph.FromCSR(netStart, netPins, costs, weights, sizes, nil)
}
