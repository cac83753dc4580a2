// Package partition defines partition assignments and the quality metrics
// used throughout hyperbal: connectivity-1 cut size (Eq. 2 of the paper),
// the balance criterion (Eq. 1), migration volume between two assignments,
// and the maximal-matching part remap used by the partition-from-scratch
// baselines.
package partition

import (
	"fmt"

	"hyperbal/internal/graph"
	"hyperbal/internal/hypergraph"
)

// Partition maps each vertex to a part in [0, K).
type Partition struct {
	Parts []int32
	K     int
}

// New creates a partition of n vertices into k parts, all assigned part 0.
func New(n, k int) Partition {
	return Partition{Parts: make([]int32, n), K: k}
}

// Clone returns a deep copy.
func (p Partition) Clone() Partition {
	return Partition{Parts: append([]int32(nil), p.Parts...), K: p.K}
}

// Of returns the part of vertex v.
func (p Partition) Of(v int) int { return int(p.Parts[v]) }

// Assign sets the part of vertex v.
func (p Partition) Assign(v, part int) { p.Parts[v] = int32(part) }

// Validate checks that every assignment is in range.
func (p Partition) Validate() error {
	for v, q := range p.Parts {
		if q < 0 || int(q) >= p.K {
			return fmt.Errorf("partition: vertex %d assigned to %d, want [0,%d)", v, q, p.K)
		}
	}
	return nil
}

// Weights returns the total vertex weight per part.
func Weights(h *hypergraph.Hypergraph, p Partition) []int64 {
	w := make([]int64, p.K)
	for v := 0; v < h.NumVertices(); v++ {
		w[p.Of(v)] += h.Weight(v)
	}
	return w
}

// GraphWeights returns the total vertex weight per part for a graph.
func GraphWeights(g *graph.Graph, p Partition) []int64 {
	w := make([]int64, p.K)
	for v := 0; v < g.NumVertices(); v++ {
		w[p.Of(v)] += g.Weight(v)
	}
	return w
}

// Imbalance returns max_p W_p / W_avg - 1; 0 is perfect balance. Parts with
// zero average weight return +Inf only when some part has weight.
func Imbalance(weights []int64) float64 {
	var total, max int64
	for _, w := range weights {
		total += w
		if w > max {
			max = w
		}
	}
	if total == 0 {
		return 0
	}
	avg := float64(total) / float64(len(weights))
	return float64(max)/avg - 1
}

// IsBalanced reports whether Eq. 1 holds: W_p <= W_avg * (1+eps) for all p.
func IsBalanced(weights []int64, eps float64) bool {
	return Imbalance(weights) <= eps+1e-12
}

// Caps returns Eq. 1's per-part weight caps W_avg*(1+eps) for k parts of
// total weight, at least 1 each. Every partitioner refines against them.
func Caps(total int64, k int, eps float64) []int64 {
	capv := max(int64(float64(total)/float64(k)*(1+eps)), 1)
	caps := make([]int64, k)
	for p := range caps {
		caps[p] = capv
	}
	return caps
}

// Connectivity returns lambda_n: the number of distinct parts net n's pins
// touch under p. A scratch buffer of length >= p.K may be supplied to avoid
// allocation; it must be zeroed and is re-zeroed before return.
func Connectivity(h *hypergraph.Hypergraph, p Partition, n int, mark []bool) int {
	local := mark == nil
	if local {
		mark = make([]bool, p.K)
	}
	lambda := 0
	pins := h.Pins(n)
	for _, v := range pins {
		q := p.Of(int(v))
		if !mark[q] {
			mark[q] = true
			lambda++
		}
	}
	for _, v := range pins {
		mark[p.Of(int(v))] = false
	}
	return lambda
}

// CutSize returns the connectivity-1 cut (Eq. 2):
// sum over nets of cost_n * (lambda_n - 1). This equals the total
// communication volume of the computation the hypergraph models.
func CutSize(h *hypergraph.Hypergraph, p Partition) int64 {
	mark := make([]bool, p.K)
	var cut int64
	for n := 0; n < h.NumNets(); n++ {
		lambda := Connectivity(h, p, n, mark)
		if lambda > 1 {
			cut += h.Cost(n) * int64(lambda-1)
		}
	}
	return cut
}

// CutNets returns the number of nets with lambda > 1.
func CutNets(h *hypergraph.Hypergraph, p Partition) int {
	mark := make([]bool, p.K)
	c := 0
	for n := 0; n < h.NumNets(); n++ {
		if Connectivity(h, p, n, mark) > 1 {
			c++
		}
	}
	return c
}

// EdgeCut returns the weighted edge cut of a graph partition: the sum of
// weights of edges whose endpoints lie in different parts.
func EdgeCut(g *graph.Graph, p Partition) int64 {
	var cut int64
	for u := 0; u < g.NumVertices(); u++ {
		adj, wts := g.Adj(u), g.AdjWeights(u)
		pu := p.Of(u)
		for i, v := range adj {
			if int(v) > u && p.Of(int(v)) != pu {
				cut += wts[i]
			}
		}
	}
	return cut
}

// MigrationVolume returns the total data size of vertices whose part
// changed from old to new. Vertices present only in one of the two
// assignments must not be included by the caller (assignments must be over
// the same vertex set/hypergraph).
func MigrationVolume(h *hypergraph.Hypergraph, old, new Partition) int64 {
	if len(old.Parts) != len(new.Parts) {
		panic("partition: MigrationVolume over different vertex sets")
	}
	var vol int64
	for v := range old.Parts {
		if old.Parts[v] != new.Parts[v] {
			vol += h.Size(v)
		}
	}
	return vol
}

// GraphMigrationVolume is MigrationVolume for graph vertices.
func GraphMigrationVolume(g *graph.Graph, old, new Partition) int64 {
	if len(old.Parts) != len(new.Parts) {
		panic("partition: GraphMigrationVolume over different vertex sets")
	}
	var vol int64
	for v := range old.Parts {
		if old.Parts[v] != new.Parts[v] {
			vol += g.Size(v)
		}
	}
	return vol
}

// MovedVertices returns the number of vertices whose assignment changed.
func MovedVertices(old, new Partition) int {
	moved := 0
	for v := range old.Parts {
		if old.Parts[v] != new.Parts[v] {
			moved++
		}
	}
	return moved
}
