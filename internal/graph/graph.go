// Package graph provides a compressed sparse row (CSR) weighted undirected
// graph, used as the input model for the graph-partitioning baseline
// (ParMETIS-style) that the paper compares against, plus conversions
// between graphs and hypergraphs.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected graph in CSR form. Every edge {u,v} is stored
// twice (u->v and v->u) with equal weights. Vertices carry computational
// weights and migration data sizes, mirroring hypergraph vertices.
type Graph struct {
	xadj   []int32 // len = n+1
	adjncy []int32 // neighbor vertex ids
	adjwgt []int64 // edge weights, parallel to adjncy

	vwgt  []int64 // vertex weights
	vsize []int64 // vertex migration sizes
}

// Builder incrementally constructs a Graph from undirected edges.
type Builder struct {
	n     int
	vwgt  []int64
	vsize []int64
	// Each non-loop AddEdge call once, in call order; Build sums parallel
	// edges.
	eu, ev []int32
	ew     []int64
}

// NewBuilder creates a builder for a graph with n vertices of unit weight
// and size and no edges.
func NewBuilder(n int) *Builder {
	b := &Builder{
		n:     n,
		vwgt:  make([]int64, n),
		vsize: make([]int64, n),
	}
	for i := 0; i < n; i++ {
		b.vwgt[i] = 1
		b.vsize[i] = 1
	}
	return b
}

// SetWeight sets the computational weight of vertex v.
func (b *Builder) SetWeight(v int, w int64) { b.vwgt[v] = w }

// SetSize sets the migration data size of vertex v.
func (b *Builder) SetSize(v int, s int64) { b.vsize[v] = s }

// AddEdge adds the undirected edge {u,v} with weight w. Adding an edge that
// already exists accumulates its weight. Self-loops are ignored.
func (b *Builder) AddEdge(u, v int, w int64) {
	if u == v {
		return
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.eu = append(b.eu, int32(u))
	b.ev = append(b.ev, int32(v))
	b.ew = append(b.ew, w)
}

// Build finalizes the CSR arrays. Neighbor lists are sorted by vertex id
// for determinism.
//
// Two counting passes, no maps: the first lists each vertex's incident
// edges; the second visits vertices in ascending order and appends each
// to its neighbours' rows, so every row comes out sorted with parallel
// edges adjacent. One sweep then sums those and closes the gaps.
func (b *Builder) Build() *Graph {
	n, m := b.n, len(b.ew)
	start := make([]int32, n+1) // row offsets, parallel edges included
	for i := 0; i < m; i++ {
		start[b.eu[i]+1]++
		start[b.ev[i]+1]++
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	pos := make([]int32, n)
	copy(pos, start)
	inc := make([]int32, 2*m) // edge ids incident to each vertex
	for i := 0; i < m; i++ {
		u, v := b.eu[i], b.ev[i]
		inc[pos[u]] = int32(i)
		pos[u]++
		inc[pos[v]] = int32(i)
		pos[v]++
	}
	adjncy := make([]int32, 2*m)
	adjwgt := make([]int64, 2*m)
	copy(pos, start)
	for x := int32(0); int(x) < n; x++ {
		for _, e := range inc[start[x]:start[x+1]] {
			y := b.eu[e]
			if y == x {
				y = b.ev[e]
			}
			adjncy[pos[y]] = x
			adjwgt[pos[y]] = b.ew[e]
			pos[y]++
		}
	}
	// Sum parallel edges in place; start becomes xadj as rows close up.
	out, lo := int32(0), int32(0)
	for u := 0; u < n; u++ {
		first, hi := out, start[u+1]
		for i := lo; i < hi; i++ {
			if out > first && adjncy[out-1] == adjncy[i] {
				adjwgt[out-1] += adjwgt[i]
				continue
			}
			adjncy[out], adjwgt[out] = adjncy[i], adjwgt[i]
			out++
		}
		start[u+1], lo = out, hi
	}
	return &Graph{
		xadj:   start,
		adjncy: adjncy[:out],
		adjwgt: adjwgt[:out],
		vwgt:   b.vwgt,
		vsize:  b.vsize,
	}
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.vwgt) }

// NumEdges returns the number of undirected edges |E|.
func (g *Graph) NumEdges() int { return len(g.adjncy) / 2 }

// Adj returns the neighbor ids of v; aliases internal storage.
func (g *Graph) Adj(v int) []int32 { return g.adjncy[g.xadj[v]:g.xadj[v+1]] }

// AdjWeights returns edge weights parallel to Adj(v); aliases storage.
func (g *Graph) AdjWeights(v int) []int64 { return g.adjwgt[g.xadj[v]:g.xadj[v+1]] }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return int(g.xadj[v+1] - g.xadj[v]) }

// Weight returns the computational weight of v.
func (g *Graph) Weight(v int) int64 { return g.vwgt[v] }

// Weights returns the vertex weights, indexed by vertex. The slice is
// shared with g and must not be modified.
func (g *Graph) Weights() []int64 { return g.vwgt }

// Size returns the migration data size of v.
func (g *Graph) Size(v int) int64 { return g.vsize[v] }

// TotalWeight returns the sum of vertex weights.
func (g *Graph) TotalWeight() int64 {
	var t int64
	for _, w := range g.vwgt {
		t += w
	}
	return t
}

// Validate checks CSR symmetry and weight sanity.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.xadj) != n+1 {
		return fmt.Errorf("xadj length %d, want %d", len(g.xadj), n+1)
	}
	if len(g.adjncy) != len(g.adjwgt) {
		return fmt.Errorf("adjncy/adjwgt length mismatch")
	}
	if g.xadj[0] != 0 || int(g.xadj[n]) != len(g.adjncy) {
		return fmt.Errorf("xadj bounds invalid")
	}
	for u := 0; u < n; u++ {
		if g.xadj[u] > g.xadj[u+1] {
			return fmt.Errorf("xadj not monotone at %d", u)
		}
		adj, wts := g.Adj(u), g.AdjWeights(u)
		for i, v := range adj {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("vertex %d has out-of-range neighbor %d", u, v)
			}
			if int(v) == u {
				return fmt.Errorf("vertex %d has a self loop", u)
			}
			// symmetric entry must exist with same weight
			w, ok := g.edgeWeight(int(v), u)
			if !ok {
				return fmt.Errorf("edge (%d,%d) missing reverse entry", u, v)
			}
			if w != wts[i] {
				return fmt.Errorf("edge (%d,%d) weight asymmetry: %d vs %d", u, v, wts[i], w)
			}
		}
	}
	return nil
}

func (g *Graph) edgeWeight(u, v int) (int64, bool) {
	adj := g.Adj(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= int32(v) })
	if i < len(adj) && adj[i] == int32(v) {
		return g.AdjWeights(u)[i], true
	}
	return 0, false
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.edgeWeight(u, v)
	return ok
}

// String returns a short diagnostic summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{V=%d E=%d}", g.NumVertices(), g.NumEdges())
}

// Stats summarizes structural properties (Table 1 columns).
type Stats struct {
	NumVertices int
	NumEdges    int
	MinDegree   int
	MaxDegree   int
	AvgDegree   float64
	TotalWeight int64
}

// ComputeStats scans g once and returns summary statistics.
func ComputeStats(g *Graph) Stats {
	s := Stats{NumVertices: g.NumVertices(), NumEdges: g.NumEdges(), TotalWeight: g.TotalWeight()}
	if s.NumVertices == 0 {
		return s
	}
	s.MinDegree = g.Degree(0)
	for v := 0; v < s.NumVertices; v++ {
		d := g.Degree(v)
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	s.AvgDegree = float64(2*s.NumEdges) / float64(s.NumVertices)
	return s
}
