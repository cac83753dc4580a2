package core

import (
	"math/rand"
	"slices"
	"testing"

	"hyperbal/internal/datasets"
	"hyperbal/internal/graph"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

// builderToHypergraph is graph.ToHypergraph assembled through
// hypergraph.Builder: one two-pin net per undirected edge.
func builderToHypergraph(g *graph.Graph) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		b.SetWeight(v, g.Weight(v))
		b.SetSize(v, g.Size(v))
	}
	for u := 0; u < g.NumVertices(); u++ {
		for i, v := range g.Adj(u) {
			if int(v) > u {
				b.AddNet(g.AdjWeights(u)[i], u, int(v))
			}
		}
	}
	return b.Build()
}

// builderRepartition is BuildRepartition's H̄ assembled through
// hypergraph.Builder.
func builderRepartition(h *hypergraph.Hypergraph, old partition.Partition, k int, alpha int64) *hypergraph.Hypergraph {
	n := h.NumVertices()
	b := hypergraph.NewBuilder(n + k)
	for v := 0; v < n; v++ {
		b.SetWeight(v, h.Weight(v))
		b.SetSize(v, h.Size(v))
	}
	for i := 0; i < k; i++ {
		b.SetWeight(n+i, 0)
		b.SetSize(n+i, 0)
		b.Fix(n+i, i)
	}
	for netID := 0; netID < h.NumNets(); netID++ {
		b.AddNetInt32(h.Cost(netID)*alpha, h.Pins(netID))
	}
	for v := 0; v < n; v++ {
		b.AddNet(h.Size(v), v, n+int(old.Parts[v]))
	}
	return b.Build()
}

// sameHypergraph compares every field of got and want through the
// accessors: both pin directions, weights, sizes, costs and fixed labels.
func sameHypergraph(t *testing.T, what string, got, want *hypergraph.Hypergraph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumNets() != want.NumNets() || got.NumPins() != want.NumPins() {
		t.Fatalf("%s: %v, want %v", what, got, want)
	}
	if got.HasFixed() != want.HasFixed() {
		t.Fatalf("%s: HasFixed %v, want %v", what, got.HasFixed(), want.HasFixed())
	}
	for n := 0; n < want.NumNets(); n++ {
		if !slices.Equal(got.Pins(n), want.Pins(n)) || got.Cost(n) != want.Cost(n) {
			t.Fatalf("%s: net %d pins %v cost %d, want %v cost %d", what, n, got.Pins(n), got.Cost(n), want.Pins(n), want.Cost(n))
		}
	}
	for v := 0; v < want.NumVertices(); v++ {
		if !slices.Equal(got.Nets(v), want.Nets(v)) || got.Weight(v) != want.Weight(v) ||
			got.Size(v) != want.Size(v) || got.Fixed(v) != want.Fixed(v) {
			t.Fatalf("%s: vertex %d nets %v weight %d size %d fixed %d, want %v %d %d %d", what, v,
				got.Nets(v), got.Weight(v), got.Size(v), got.Fixed(v),
				want.Nets(v), want.Weight(v), want.Size(v), want.Fixed(v))
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: fingerprint differs", what)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: Validate: %v", what, err)
	}
}

// TestCSRConstructionMatchesBuilder checks that the two per-epoch
// constructions that write CSR directly, graph.ToHypergraph and
// BuildRepartition, produce exactly the hypergraph hypergraph.Builder
// assembles from the same calls, on every dataset analogue.
func TestCSRConstructionMatchesBuilder(t *testing.T) {
	const k, alpha = 8, 10
	for _, name := range datasets.Names() {
		t.Run(name, func(t *testing.T) {
			g, err := datasets.Generate(name, 600, 1)
			if err != nil {
				t.Fatal(err)
			}
			h := graph.ToHypergraph(g)
			sameHypergraph(t, "ToHypergraph", h, builderToHypergraph(g))

			rng := rand.New(rand.NewSource(7))
			old := partition.New(h.NumVertices(), k)
			for v := range old.Parts {
				old.Parts[v] = int32(rng.Intn(k))
			}
			r, err := BuildRepartition(h, old, k, alpha)
			if err != nil {
				t.Fatal(err)
			}
			sameHypergraph(t, "BuildRepartition", r.H, builderRepartition(h, old, k, alpha))
		})
	}
}
