//go:build !race

package graph_test

import (
	"testing"

	"hyperbal/internal/datasets"
	"hyperbal/internal/graph"
)

// TestBuilderAllocGuard pins the allocation count of building a graph, so
// no per-vertex or per-edge allocation creeps back into Builder. Replaying
// apoa1-10 at n = 600 (10 393 edges) costs the append growth of three flat
// edge slices plus a fixed handful in Build: 63 measured, where a builder
// with a map per vertex made 4 897. Excluded under -race: the detector
// inserts allocations of its own.
func TestBuilderAllocGuard(t *testing.T) {
	g, err := datasets.Generate("apoa1-10", 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(10, func() {
		b := graph.NewBuilder(g.NumVertices())
		for v := 0; v < g.NumVertices(); v++ {
			b.SetWeight(v, g.Weight(v))
			b.SetSize(v, g.Size(v))
			for i, u := range g.Adj(v) {
				if int(u) > v {
					b.AddEdge(v, int(u), g.AdjWeights(v)[i])
				}
			}
		}
		b.Build()
	})
	if n >= 100 {
		t.Errorf("Builder: %.0f allocs to build apoa1-10, want < 100", n)
	}
}
