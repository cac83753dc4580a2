//go:build !race

package hypergraph

import (
	"math/rand"
	"testing"
)

// TestHashAllocGuard pins Fingerprint and Digest to the one allocation of
// the returned string: the encoder, its chunk and the SHA-256 state are
// pooled. The per-value encoders they replaced made 3 and 6. Excluded
// under -race, as are the other guards here: the detector inserts
// allocations of its own.
func TestHashAllocGuard(t *testing.T) {
	h := randomHypergraph(rand.New(rand.NewSource(1)), 3000, 2000)
	d := &Delta{
		Version: DeltaVersion, Base: h.Fingerprint(),
		VertexMap: []int32{0, 2, -1}, NewWeights: []int64{4},
		NetMap: []int32{-1, 1}, NewNetCosts: []int64{2}, NewNetPins: [][]int32{{0, 1}},
		WeightIDs: []int32{1}, WeightVals: []int64{9},
	}
	if n := testing.AllocsPerRun(100, func() { _ = h.Fingerprint() }); n > 1 {
		t.Errorf("Fingerprint: %.0f allocs, want <= 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = d.Digest() }); n > 1 {
		t.Errorf("Digest: %.0f allocs, want <= 1", n)
	}
}

// TestComputeDeltaMappedAllocGuard pins ComputeDeltaMapped to a fixed
// number of allocations whatever the net count: every slice of the delta
// and of the matcher is sized once (measured: 21 for a structural change,
// 9 for an identity map). Through per-signature maps and per-net pin
// clones it made 2 073 at 1 000 nets and 8 089 at 4 000.
func TestComputeDeltaMappedAllocGuard(t *testing.T) {
	for _, structural := range []bool{false, true} {
		var counts []float64
		for _, n := range []int{500, 2000} {
			rng := rand.New(rand.NewSource(5))
			base := randomHypergraph(rng, n, 2*n)
			next := mutateHypergraph(rng, base)
			vmap := lastVmap
			if !structural {
				next = base.ScaleCosts(2)
				vmap = make([]int32, n)
				for i := range vmap {
					vmap[i] = int32(i)
				}
			}
			counts = append(counts, testing.AllocsPerRun(10, func() {
				if _, ok := ComputeDeltaMapped(base, next, vmap); !ok {
					t.Fatal("not delta-able")
				}
			}))
		}
		if counts[0] != counts[1] || counts[0] > 24 {
			t.Errorf("ComputeDeltaMapped (structural %v): %v allocs at 1 000 and 4 000 nets; want equal and <= 24", structural, counts)
		}
	}
}
