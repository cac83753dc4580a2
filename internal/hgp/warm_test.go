package hgp

import (
	"math/rand"
	"testing"

	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

// warmSeed produces a cold partition plus a mildly perturbed hypergraph
// and the dirty set of the perturbation.
func warmSeed(t *testing.T, rng *rand.Rand, n int, k int) (*hypergraph.Hypergraph, partition.Partition, []bool) {
	t.Helper()
	h := randomHG(rng, n, n*3/2, 5)
	cold, err := Partition(h, Options{K: k, Imbalance: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	dirty := make([]bool, n)
	for i := 0; i < n/20+1; i++ {
		dirty[rng.Intn(n)] = true
	}
	return h, cold, dirty
}

func TestPartitionWarmLocalized(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h, cold, dirty := warmSeed(t, rng, 300, 4)
	p, st, err := PartitionWarm(h, Options{K: 4, Imbalance: 0.05, Seed: 9}, WarmSpec{Parts: cold.Parts, Dirty: dirty})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "localized" {
		t.Fatalf("small dirty set should localize, got %q (frac %.3f)", st.Mode, st.DirtyFraction)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	w := partition.Weights(h, p)
	if !partition.IsBalanced(w, 0.05) {
		t.Fatalf("warm partition imbalanced: %v", w)
	}
	coldCut := partition.CutSize(h, cold)
	if st.Cut > coldCut {
		t.Fatalf("warm start on an unchanged hypergraph worsened the cut: %d > %d", st.Cut, coldCut)
	}
}

func TestPartitionWarmNilDirtyRunsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h, cold, _ := warmSeed(t, rng, 200, 4)
	p, st, err := PartitionWarm(h, Options{K: 4, Imbalance: 0.05, Seed: 9}, WarmSpec{Parts: cold.Parts})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "cold" {
		t.Fatalf("nil dirty set must run the cold partitioner, got %q", st.Mode)
	}
	if !partition.IsBalanced(partition.Weights(h, p), 0.05) {
		t.Fatal("warm-path cold partition imbalanced")
	}
	if st.Cut > partition.CutSize(h, cold) {
		t.Fatalf("warm-path cold run worsened the cut")
	}
}

// TestPartitionWarmMediumDriftVCycle: a dirty fraction between the
// localized and cold thresholds must take the seeded V-cycle.
func TestPartitionWarmMediumDriftVCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	h, cold, _ := warmSeed(t, rng, 200, 4)
	dirty := make([]bool, 200)
	for v := 0; v < 80; v++ { // 40%: past localized, under cold
		dirty[v] = true
	}
	p, st, err := PartitionWarm(h, Options{K: 4, Imbalance: 0.05, Seed: 9}, WarmSpec{Parts: cold.Parts, Dirty: dirty})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "vcycle" {
		t.Fatalf("medium drift should take the seeded V-cycle, got %q", st.Mode)
	}
	if !partition.IsBalanced(partition.Weights(h, p), 0.05) {
		t.Fatal("warm V-cycle partition imbalanced")
	}
}

// TestPartitionWarmParallelismInvariant: the warm path runs the repair and
// refinement kernels — assert their in-order passes keep results
// byte-identical across Parallelism.
func TestPartitionWarmParallelismInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	h, cold, dirty := warmSeed(t, rng, 250, 8)
	var ref []int32
	for _, par := range []int{1, 2, 4, 7} {
		p, _, err := PartitionWarm(h, Options{K: 8, Imbalance: 0.05, Seed: 9, Parallelism: par}, WarmSpec{Parts: cold.Parts, Dirty: dirty})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = p.Parts
			continue
		}
		for v := range ref {
			if ref[v] != p.Parts[v] {
				t.Fatalf("Parallelism=%d diverges at vertex %d", par, v)
			}
		}
	}
}

func TestPartitionWarmHonorsFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h, cold, dirty := warmSeed(t, rng, 150, 4)
	fixed := make([]int32, h.NumVertices())
	for v := range fixed {
		fixed[v] = hypergraph.Free
	}
	fixed[3], fixed[70] = 2, 1
	hf := h.WithFixed(fixed)
	p, _, err := PartitionWarm(hf, Options{K: 4, Imbalance: 0.05, Seed: 9}, WarmSpec{Parts: cold.Parts, Dirty: dirty})
	if err != nil {
		t.Fatal(err)
	}
	if p.Parts[3] != 2 || p.Parts[70] != 1 {
		t.Fatalf("fixed vertices moved: got %d, %d", p.Parts[3], p.Parts[70])
	}
}

func TestPartitionWarmRejectsBadSpec(t *testing.T) {
	h := grid2D(4, 4)
	opt := Options{K: 2, Imbalance: 0.05}
	if _, _, err := PartitionWarm(h, opt, WarmSpec{Parts: make([]int32, 3)}); err == nil {
		t.Fatal("want length error")
	}
	bad := make([]int32, 16)
	bad[5] = 9
	if _, _, err := PartitionWarm(h, opt, WarmSpec{Parts: bad}); err == nil {
		t.Fatal("want range error")
	}
	if _, _, err := PartitionWarm(h, opt, WarmSpec{Parts: make([]int32, 16), Dirty: make([]bool, 2)}); err == nil {
		t.Fatal("want dirty length error")
	}
}
