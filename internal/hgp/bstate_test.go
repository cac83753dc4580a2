package hgp

import (
	"fmt"
	"math/rand"
	"testing"

	"hyperbal/internal/hypergraph"
)

// recountCut is the cut as a scan over every net counts it: the
// definition bisectState's incremental cut must match.
func recountCut(s *bisectState) int64 {
	var c int64
	for n := 0; n < s.h.NumNets(); n++ {
		sz := int32(s.h.NetSize(n))
		if s.pins0[n] > 0 && s.pins0[n] < sz {
			c += s.h.Cost(n)
		}
	}
	return c
}

// withSinglePinNets returns a copy of h with a few single-pin nets added,
// which never enter the cut and never count toward a gain.
func withSinglePinNets(h *hypergraph.Hypergraph, rng *rand.Rand) *hypergraph.Hypergraph {
	n := h.NumVertices()
	b := hypergraph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetWeight(v, h.Weight(v))
	}
	for e := 0; e < h.NumNets(); e++ {
		b.AddNetInt32(h.Cost(e), h.Pins(e))
	}
	for i := rng.Intn(n/4 + 1); i >= 0; i-- {
		b.AddNet(int64(1+rng.Intn(3)), rng.Intn(n))
	}
	return b.Build()
}

// TestBisectStateDeltas holds move's delta rules to gain and its cut to a
// recount. Random move sequences, which often move a vertex straight
// back, run over oracle hypergraphs with single-pin nets, zero-weight
// vertices and vertices fixed to a side (never moved, still updated).
// After every move each vertex's kept gain must equal gain and Cut must
// equal recountCut.
func TestBisectStateDeltas(t *testing.T) {
	for i := 0; i < 150; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		h := withSinglePinNets(oracleHG(rng), rng)
		n := h.NumVertices()
		fixed := oracleSides(rng, n)
		parts := make([]int32, n)
		var free []int
		for v, f := range fixed {
			if f == hypergraph.Free {
				parts[v] = int32(rng.Intn(2))
				free = append(free, v)
			} else {
				parts[v] = f
			}
		}
		if len(free) == 0 {
			continue
		}
		maxNet := oracleMaxNets[i%3]
		var s bisectState
		s.init(h, parts, 0, 0, maxNet, nil)
		g := s.gains(nil)
		check := func(step string) {
			t.Helper()
			if got, want := s.Cut(), recountCut(&s); got != want {
				t.Fatalf("instance %d (maxNet %d), %s: Cut() = %d, recount %d", i, maxNet, step, got, want)
			}
			for u := 0; u < n; u++ {
				if got, want := g[u], s.gain(u); got != want {
					t.Fatalf("instance %d (maxNet %d), %s: kept gain of %d = %d, gain = %d", i, maxNet, step, u, got, want)
				}
			}
		}
		check("init")
		prev := -1
		for m := 0; m < 2*n; m++ {
			v := free[rng.Intn(len(free))]
			if prev >= 0 && rng.Intn(4) == 0 {
				v = prev
			}
			s.move(v, g)
			prev = v
			check(fmt.Sprintf("move %d (vertex %d)", m, v))
		}
	}
}

// TestStartRNGMatchesFreshSource holds the workspace's re-seeded start
// generator to the stream of a freshly allocated one, whatever was drawn
// from it before.
func TestStartRNGMatchesFreshSource(t *testing.T) {
	ws := new(workspace)
	for i, seed := range []int64{0, 1, -7, 42, 1 << 40, startSeed(12345, 3)} {
		r := ws.startRNG(seed)
		fresh := rand.New(rand.NewSource(seed))
		for d := 0; d < 200; d++ {
			if a, b := r.Int63(), fresh.Int63(); a != b {
				t.Fatalf("seed %d: draw %d = %d, fresh source %d", seed, d, a, b)
			}
			if a, b := r.Intn(d+1), fresh.Intn(d+1); a != b {
				t.Fatalf("seed %d: Intn draw %d = %d, fresh source %d", seed, d, a, b)
			}
		}
		// Leave the generator part-way through a stream for the next seed.
		for d := 0; d < 3*i+1; d++ {
			r.Int63()
		}
	}
}
