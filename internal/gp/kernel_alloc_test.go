//go:build !race

package gp

import (
	"math/rand"
	"testing"

	"hyperbal/internal/datasets"
	"hyperbal/internal/gaintree"
)

// TestKernelAllocGuards pins the steady-state allocs/op of fm2, the graph
// baseline's FM, on BenchmarkGPFM2's level. It allocates its gain array,
// move list and gain tree per call (4 allocations measured); the limit
// carries ~50% headroom. Excluded under -race: the detector inserts
// allocations of its own.
func TestKernelAllocGuards(t *testing.T) {
	g, err := datasets.Generate("xyce680s", 1200, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(2))
	base := make([]int32, n)
	for _, v := range rng.Perm(n)[:n/2] {
		base[v] = 1
	}
	_, c0, c1 := oracleCaps(g, 0.5, 0.05)
	parts := make([]int32, n)
	var ord gaintree.Order
	ord.Build(g.Weights())
	if n := testing.AllocsPerRun(10, func() {
		copy(parts, base)
		fm2(g, parts, c0, c1, 4, &ord)
	}); n > 6 {
		t.Errorf("fm2: %.0f allocs/op, want <= 6", n)
	}
}
