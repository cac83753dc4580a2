package gaintree

import (
	"cmp"
	"fmt"
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

// TestTreeMatchesScan drives a Tree through randomized Load/Build, Update
// and Remove sequences and after every step checks Top, TopWithin, Active,
// Gain and Better against a scan of a plain model: per vertex its side (or
// none) and gain, the best being the highest gain, then the lowest vertex.
// Gains come from a narrow range so ties are common; weights include ones
// above 2^32. Trees laid out by an Order and in vertex order (nil) both
// run; TopWithin needs an Order.
func TestTreeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var tr Tree
	var o Order
	for inst := 0; inst < 300; inst++ {
		n := rng.Intn(70)
		w := make([]int64, n)
		for v := range w {
			switch inst % 3 {
			case 0:
				w[v] = int64(1 + rng.Intn(4))
			case 1:
				w[v] = int64(rng.Intn(60))
			default:
				w[v] = 1<<33 + int64(rng.Intn(3))<<32 + int64(rng.Intn(5))
			}
		}
		ord := &o
		if inst%4 == 3 {
			ord = nil
		} else {
			o.Build(w)
		}
		side := make([]int32, n) // -1: inactive
		gain := make([]int64, n)
		gains := int64(1 + rng.Intn(6))
		draw := func() int64 { return rng.Int63n(2*gains+1) - gains }

		tr.Reset(n, ord)
		for v := range side {
			side[v] = -1
			if rng.Intn(3) > 0 {
				side[v], gain[v] = int32(rng.Intn(2)), draw()
				tr.Load(v, side[v], gain[v])
			}
		}
		tr.Build()
		check := func(step string) {
			t.Helper()
			best := func(s int32, limit int64) int32 {
				b := int32(-1)
				for v := range side {
					if side[v] == s && w[v] <= limit && (b < 0 || gain[v] > gain[b]) {
						b = int32(v)
					}
				}
				return b
			}
			for s := int32(0); s < 2; s++ {
				if got, want := tr.Top(s), best(s, 1<<62); got != want {
					t.Fatalf("instance %d %s: Top(%d) = %d, scan %d", inst, step, s, got, want)
				}
				if ord == nil || n == 0 {
					continue
				}
				for range 3 {
					limit := w[rng.Intn(n)] + int64(rng.Intn(3)) - 1
					if got, want := tr.TopWithin(s, limit), best(s, limit); got != want {
						t.Fatalf("instance %d %s: TopWithin(%d, %d) = %d, scan %d", inst, step, s, limit, got, want)
					}
				}
			}
			for v := range side {
				if tr.Active(v) != (side[v] >= 0) {
					t.Fatalf("instance %d %s: Active(%d) = %v, side %d", inst, step, v, tr.Active(v), side[v])
				}
				if side[v] >= 0 && tr.Gain(v) != gain[v] {
					t.Fatalf("instance %d %s: Gain(%d) = %d, want %d", inst, step, v, tr.Gain(v), gain[v])
				}
			}
			if n == 0 {
				return
			}
			a, b := int32(rng.Intn(n+1)-1), int32(rng.Intn(n+1)-1)
			if a >= 0 && side[a] < 0 || b >= 0 && side[b] < 0 {
				return // Better compares the gains of active vertices
			}
			want := a
			switch {
			case a < 0:
				want = b
			case b < 0:
			case gain[b] > gain[a] || gain[b] == gain[a] && b < a:
				want = b
			}
			if got := tr.Better(a, b); got != want {
				t.Fatalf("instance %d %s: Better(%d, %d) = %d, want %d", inst, step, a, b, got, want)
			}
		}
		check("after Build")
		for step := 0; step < 4*n; step++ {
			v := rng.Intn(n)
			if rng.Intn(3) == 0 {
				tr.Remove(v)
				side[v] = -1
				check(fmt.Sprintf("step %d Remove(%d)", step, v))
				continue
			}
			if side[v] < 0 {
				side[v] = int32(rng.Intn(2))
			}
			gain[v] = draw()
			tr.Update(v, side[v], gain[v])
			check(fmt.Sprintf("step %d Update(%d, %d, %d)", step, v, side[v], gain[v]))
		}
	}
}
