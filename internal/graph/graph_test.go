package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hyperbal/internal/hypergraph"
)

func ring(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n, 1)
	}
	return b.Build()
}

func TestBuilderBasic(t *testing.T) {
	g := ring(5)
	if g.NumVertices() != 5 || g.NumEdges() != 5 {
		t.Fatalf("got %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.Degree(0) != 2 {
		t.Fatalf("Degree(0) = %d", g.Degree(0))
	}
	if !g.HasEdge(0, 4) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(1, 1, 5)
	g := b.Build()
	if g.NumEdges() != 0 {
		t.Fatalf("self loop not ignored: %v", g)
	}
}

func TestParallelEdgeAccumulates(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 0, 3)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	if w, _ := g.edgeWeight(0, 1); w != 5 {
		t.Fatalf("weight = %d, want 5", w)
	}
}

func TestOutOfRangeEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 7, 1)
}

func TestStats(t *testing.T) {
	g := ring(6)
	s := ComputeStats(g)
	if s.NumVertices != 6 || s.NumEdges != 6 || s.MinDegree != 2 || s.MaxDegree != 2 || s.AvgDegree != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestToHypergraph(t *testing.T) {
	g := ring(4)
	h := ToHypergraph(g)
	if h.NumNets() != 4 || h.NumVertices() != 4 {
		t.Fatalf("got %v", h)
	}
	for n := 0; n < h.NumNets(); n++ {
		if h.NetSize(n) != 2 {
			t.Fatalf("net %d size %d, want 2", n, h.NetSize(n))
		}
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFromHypergraphClique(t *testing.T) {
	b := hypergraph.NewBuilder(4)
	b.AddNet(6, 0, 1, 2) // triangle, w = 6/2 = 3
	b.SetWeight(3, 9)
	h := b.Build()
	g := FromHypergraph(h, 32)
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
	if w, _ := g.edgeWeight(0, 1); w != 3 {
		t.Fatalf("edge weight = %d, want 3", w)
	}
	if g.Weight(3) != 9 {
		t.Fatal("vertex weight not carried over")
	}
}

func TestFromHypergraphRingFallback(t *testing.T) {
	b := hypergraph.NewBuilder(10)
	pins := make([]int, 10)
	for i := range pins {
		pins[i] = i
	}
	b.AddNet(9, pins...)
	g := FromHypergraph(b.Build(), 4) // net size 10 > 4 -> ring
	if g.NumEdges() != 10 {
		t.Fatalf("edges = %d, want ring of 10", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGraphHypergraphRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBuilder(20)
	for i := 0; i < 40; i++ {
		u, v := rng.Intn(20), rng.Intn(20)
		if u != v {
			b.AddEdge(u, v, int64(1+rng.Intn(5)))
		}
	}
	g := b.Build()
	h := ToHypergraph(g)
	g2 := FromHypergraph(h, 32) // all nets size 2, exact
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip edges %d != %d", g2.NumEdges(), g.NumEdges())
	}
	for u := 0; u < 20; u++ {
		adj := g.Adj(u)
		for i, v := range adj {
			w2, ok := g2.edgeWeight(u, int(v))
			if !ok {
				t.Fatalf("edge (%d,%d) lost", u, v)
			}
			// net cost c over 2 pins -> edge weight c/(2-1) = c
			if w2 != g.AdjWeights(u)[i] {
				t.Fatalf("edge (%d,%d) weight %d != %d", u, v, w2, g.AdjWeights(u)[i])
			}
		}
	}
}

// Property: random builds validate and degree sum is 2|E|.
func TestQuickBuildInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		b := NewBuilder(n)
		for i := 0; i < rng.Intn(80); i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n), int64(1+rng.Intn(4)))
		}
		g := b.Build()
		if g.Validate() != nil {
			return false
		}
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refEdge is one AddEdge call for TestBuilderMatchesMapReference.
type refEdge struct {
	u, v int
	w    int64
}

// mapReferenceBuild is the per-vertex map builder Build replaced: each
// edge accumulates into both endpoints' maps, and each row lists its keys
// in ascending order.
func mapReferenceBuild(n int, edges []refEdge, vwgt, vsize []int64) *Graph {
	nbrs := make([]map[int32]int64, n)
	for i := range nbrs {
		nbrs[i] = map[int32]int64{}
	}
	for _, e := range edges {
		if e.u == e.v {
			continue
		}
		nbrs[e.u][int32(e.v)] += e.w
		nbrs[e.v][int32(e.u)] += e.w
	}
	g := &Graph{xadj: make([]int32, n+1), vwgt: vwgt, vsize: vsize}
	for u := 0; u < n; u++ {
		keys := make([]int32, 0, len(nbrs[u]))
		for v := range nbrs[u] {
			keys = append(keys, v)
		}
		slices.Sort(keys)
		for _, v := range keys {
			g.adjncy = append(g.adjncy, v)
			g.adjwgt = append(g.adjwgt, nbrs[u][v])
		}
		g.xadj[u+1] = int32(len(g.adjncy))
	}
	return g
}

// TestBuilderMatchesMapReference pins Build's CSR, array by array, to the
// map reference on hand-picked edge cases and on random multigraphs.
func TestBuilderMatchesMapReference(t *testing.T) {
	type tc struct {
		name  string
		n     int
		edges []refEdge
	}
	cases := []tc{
		{"empty", 0, nil},
		{"single vertex", 1, nil},
		{"single vertex self-loop", 1, []refEdge{{0, 0, 4}}},
		{"isolated vertices", 6, []refEdge{{1, 4, 2}}},
		{"parallel both orientations", 4, []refEdge{{0, 3, 1}, {3, 0, 2}, {0, 3, 4}, {2, 1, 7}, {1, 2, 1}}},
		{"zero weights", 3, []refEdge{{0, 1, 0}, {1, 2, 0}, {2, 1, 0}}},
		{"parallel weights summing to zero", 3, []refEdge{{0, 2, 5}, {2, 0, -5}, {1, 2, 3}}},
		{"self-loops among edges", 4, []refEdge{{2, 2, 9}, {0, 1, 1}, {1, 1, 3}, {3, 0, 2}, {0, 0, 1}}},
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(25)
		edges := make([]refEdge, rng.Intn(4*n))
		for j := range edges {
			// Small weight range with zeros and negatives, so parallel
			// edges often sum to 0.
			edges[j] = refEdge{rng.Intn(n), rng.Intn(n), int64(rng.Intn(7) - 3)}
		}
		cases = append(cases, tc{fmt.Sprintf("random %d", i), n, edges})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder(c.n)
			vwgt, vsize := make([]int64, c.n), make([]int64, c.n)
			for v := 0; v < c.n; v++ {
				vwgt[v], vsize[v] = int64(v+2), int64(3*v+1)
				b.SetWeight(v, vwgt[v])
				b.SetSize(v, vsize[v])
			}
			for _, e := range c.edges {
				b.AddEdge(e.u, e.v, e.w)
			}
			got, want := b.Build(), mapReferenceBuild(c.n, c.edges, vwgt, vsize)
			if !slices.Equal(got.xadj, want.xadj) || !slices.Equal(got.adjncy, want.adjncy) ||
				!slices.Equal(got.adjwgt, want.adjwgt) || !slices.Equal(got.vwgt, want.vwgt) ||
				!slices.Equal(got.vsize, want.vsize) {
				t.Errorf("got xadj %v adjncy %v adjwgt %v vwgt %v vsize %v\nwant xadj %v adjncy %v adjwgt %v vwgt %v vsize %v",
					got.xadj, got.adjncy, got.adjwgt, got.vwgt, got.vsize,
					want.xadj, want.adjncy, want.adjwgt, want.vwgt, want.vsize)
			}
		})
	}
}
