package gp

import (
	"math/rand"
	"testing"

	"hyperbal/internal/datasets"
	"hyperbal/internal/gaintree"
)

// BenchmarkGPFM2 measures fm2 on one xyce680s-analogue level (n = 1 200,
// the repo-level benchScale) from a seeded random bisection at ε = 0.05,
// up to 4 passes. "tree" is the live kernel, leaf order included; "ref" is
// the lazy-heap kernel it replaced (refFM2), so the two stay comparable at
// any commit.
func BenchmarkGPFM2(b *testing.B) {
	g, err := datasets.Generate("xyce680s", 1200, 1)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(2))
	base := make([]int32, n)
	for _, v := range rng.Perm(n)[:n/2] {
		base[v] = 1
	}
	_, c0, c1 := oracleCaps(g, 0.5, 0.05)
	parts := make([]int32, n)
	b.Run("tree", func(b *testing.B) {
		var ord gaintree.Order
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(parts, base)
			ord.Build(g.Weights())
			fm2(g, parts, c0, c1, 4, &ord)
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(parts, base)
			refFM2(g, parts, c0, c1, 4)
		}
	})
}
