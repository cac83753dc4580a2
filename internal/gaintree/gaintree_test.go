package gaintree

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestWeightOrderMatchesSort holds the radix leaf order to a comparison
// sort by (weight, vertex), on one Order reused across sizes.
func TestWeightOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	weights := func(n int, draw func(v int) int64) []int64 {
		w := make([]int64, n)
		for v := range w {
			w[v] = draw(v)
		}
		return w
	}
	cases := map[string][]int64{
		"empty":       nil,
		"one":         {5},
		"all equal":   weights(300, func(int) int64 { return 3 }),
		"all zero":    weights(50, func(int) int64 { return 0 }),
		"zeros":       weights(400, func(int) int64 { return int64(rng.Intn(2)) * int64(1+rng.Intn(1000)) }),
		"heavy ties":  weights(1000, func(int) int64 { return int64(rng.Intn(3)) }),
		"one byte":    weights(700, func(int) int64 { return int64(rng.Intn(256)) }),
		"spread":      weights(900, func(int) int64 { return int64(rng.Intn(70000)) }),
		"above 2^32":  weights(600, func(int) int64 { return 1<<40 + int64(rng.Intn(4))<<33 + int64(rng.Intn(3)) }),
		"full range":  weights(800, func(int) int64 { return rng.Int63() >> uint(rng.Intn(63)) }),
		"min above 0": weights(500, func(int) int64 { return 1<<35 + int64(rng.Intn(300)) }),
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	slices.Sort(names)
	var o Order
	for _, name := range names {
		w := cases[name]
		want := make([]int32, len(w))
		for v := range want {
			want[v] = int32(v)
		}
		slices.SortFunc(want, func(a, b int32) int {
			if c := cmp.Compare(w[a], w[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		o.Build(w)
		if !slices.Equal(o.vertex, want) {
			t.Fatalf("%s: radix order differs from the (weight, vertex) sort", name)
		}
		for i, v := range want {
			if o.weight[i] != w[v] || o.leaf[v] != int32(i) {
				t.Fatalf("%s: leaf %d holds weight %d and vertex %d sits at leaf %d, want weight %d and leaf %d", name, i, o.weight[i], v, o.leaf[v], w[v], i)
			}
		}
	}
}
