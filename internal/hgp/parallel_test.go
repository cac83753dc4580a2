package hgp

import (
	"bytes"
	"math/rand"
	"testing"

	"hyperbal/internal/hypergraph"
)

// partitionBytes runs Partition and flattens the result for bytewise
// comparison.
func partitionBytes(t *testing.T, h *hypergraph.Hypergraph, opt Options) []byte {
	t.Helper()
	p, err := Partition(h, opt)
	if err != nil {
		t.Fatalf("Partition(%+v): %v", opt, err)
	}
	var buf bytes.Buffer
	for _, q := range p.Parts {
		buf.WriteByte(byte(q))
	}
	return buf.Bytes()
}

// TestPartitionParallelismDeterminism verifies the core contract of the
// parallel pipeline: every Parallelism value produces a bit-identical
// partition, with fixed vertices present.
func TestPartitionParallelismDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed * 977))
		h := quickHG(rng)
		k := 2 + rng.Intn(6)
		fixed := make([]int32, h.NumVertices())
		for v := range fixed {
			fixed[v] = hypergraph.Free
			if rng.Float64() < 0.15 {
				fixed[v] = int32(rng.Intn(k))
			}
		}
		hf := h.WithFixed(fixed)
		opt := Options{K: k, Imbalance: 0.10, Seed: seed, Parallelism: 1}
		ref := partitionBytes(t, hf, opt)
		for _, par := range []int{2, 4, 8} {
			opt.Parallelism = par
			got := partitionBytes(t, hf, opt)
			if !bytes.Equal(ref, got) {
				t.Errorf("seed %d: Parallelism=%d diverges from Parallelism=1", seed, par)
			}
		}
	}
}

// TestKernelWorkersRespectSerialPin asserts the rank-local regime: at
// Parallelism=1 (the pin the SPMD coarse solve applies per rank) no work
// item — RB side or multi-start — may run on a spawned worker, which the
// hgp_kernel_worker_items_total counter records.
func TestKernelWorkersRespectSerialPin(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	h := quickHG(rng)

	before := obsKernelWorkerItems.Load()
	if _, err := Partition(h, Options{K: 4, Imbalance: 0.10, Seed: 3, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if d := obsKernelWorkerItems.Load() - before; d != 0 {
		t.Fatalf("Parallelism=1 spawned %d kernel worker items, want 0", d)
	}

	// Sanity check the counter is live: an unpinned run must spill at
	// least one item onto the pool.
	before = obsKernelWorkerItems.Load()
	if _, err := Partition(h, Options{K: 4, Imbalance: 0.10, Seed: 3, Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	if obsKernelWorkerItems.Load() == before {
		t.Fatal("Parallelism=4 spawned no kernel worker items; spill accounting is dead")
	}
}
