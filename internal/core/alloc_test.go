//go:build !race

package core

import (
	"testing"

	"hyperbal/internal/datasets"
	"hyperbal/internal/graph"
	"hyperbal/internal/partition"
)

// TestBuildRepartitionAllocGuard pins BuildRepartition to a fixed number
// of allocations whatever the problem size: each CSR array is sized once
// (12 measured; through hypergraph.Builder it was 67 at n = 600 and 90 at
// n = 2 400). Excluded under -race: the detector inserts allocations of
// its own.
func TestBuildRepartitionAllocGuard(t *testing.T) {
	const k = 8
	var counts []float64
	for _, n := range []int{600, 2400} {
		g, err := datasets.Generate("apoa1-10", n, 1)
		if err != nil {
			t.Fatal(err)
		}
		h := graph.ToHypergraph(g)
		old := partition.New(h.NumVertices(), k)
		for v := range old.Parts {
			old.Parts[v] = int32(v % k)
		}
		counts = append(counts, testing.AllocsPerRun(10, func() {
			if _, err := BuildRepartition(h, old, k, 10); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[0] > 16 {
		t.Errorf("BuildRepartition: %v allocs at n = 600, 2 400; want equal and <= 16", counts)
	}
}
