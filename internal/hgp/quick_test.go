package hgp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

// quickHG builds a random connected-ish hypergraph for property tests.
func quickHG(rng *rand.Rand) *hypergraph.Hypergraph {
	n := 20 + rng.Intn(80)
	b := hypergraph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetWeight(v, int64(1+rng.Intn(3)))
		b.SetSize(v, int64(1+rng.Intn(3)))
	}
	// chain for connectivity plus random nets
	for v := 0; v+1 < n; v++ {
		b.AddNet(1, v, v+1)
	}
	for i := 0; i < n; i++ {
		sz := 2 + rng.Intn(4)
		if sz > n {
			sz = n
		}
		b.AddNet(int64(1+rng.Intn(3)), rng.Perm(n)[:sz]...)
	}
	return b.Build()
}

// Property: Partition always returns a valid assignment with every fixed
// vertex at its fixed part and balance within a generous envelope.
func TestQuickPartitionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := quickHG(rng)
		k := 2 + rng.Intn(4)
		fixed := make([]int32, h.NumVertices())
		for v := range fixed {
			fixed[v] = hypergraph.Free
			if rng.Float64() < 0.15 {
				fixed[v] = int32(rng.Intn(k))
			}
		}
		hf := h.WithFixed(fixed)
		p, err := Partition(hf, Options{K: k, Imbalance: 0.10, Seed: seed})
		if err != nil || p.Validate() != nil {
			return false
		}
		for v, fv := range fixed {
			if fv != hypergraph.Free && p.Parts[v] != fv {
				return false
			}
		}
		// Generous balance envelope: random fixed assignments can make the
		// ideal infeasible, so only reject gross violations.
		w := partition.Weights(hf, p)
		return partition.Imbalance(w) < 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the same seed always produces the same partition, and the cut
// never exceeds the total net cost (trivial upper bound sanity).
func TestQuickDeterminismAndBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := quickHG(rng)
		k := 2 + rng.Intn(3)
		p1, err1 := Partition(h, Options{K: k, Seed: seed})
		p2, err2 := Partition(h, Options{K: k, Seed: seed})
		if err1 != nil || err2 != nil {
			return false
		}
		for v := range p1.Parts {
			if p1.Parts[v] != p2.Parts[v] {
				return false
			}
		}
		cut := partition.CutSize(h, p1)
		var bound int64
		for n := 0; n < h.NumNets(); n++ {
			bound += h.Cost(n) * int64(k-1)
		}
		return cut >= 0 && cut <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: coarsening hierarchies conserve total weight and size at every
// level, and every cmap is a valid surjection.
func TestQuickCoarsenHierarchyInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := quickHG(rng)
		levels := coarsen(h, rng, 20, new(workspace))
		for i := 0; i < len(levels); i++ {
			if levels[i].h.TotalWeight() != h.TotalWeight() {
				return false
			}
			if levels[i].h.TotalSize() != h.TotalSize() {
				return false
			}
			if i+1 < len(levels) {
				cmap := levels[i].cmap
				if len(cmap) != levels[i].h.NumVertices() {
					return false
				}
				seen := make([]bool, levels[i+1].h.NumVertices())
				for _, c := range cmap {
					if c < 0 || int(c) >= len(seen) {
						return false
					}
					seen[c] = true
				}
				for _, ok := range seen {
					if !ok {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: RefineKwayWithMigration never worsens the combined objective
// alpha*cut + migration and respects caps-feasible fixed vertices.
func TestQuickRefineMigrationMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := quickHG(rng)
		k := 2 + rng.Intn(4)
		alpha := int64(1 + rng.Intn(20))
		// Round-robin start keeps every part under the generous caps so the
		// forced-rebalance path (which may legitimately worsen the combined
		// objective to restore feasibility) never triggers.
		old := make([]int32, h.NumVertices())
		parts := make([]int32, h.NumVertices())
		for v := range parts {
			old[v] = int32(v % k)
			parts[v] = old[v]
		}
		caps := partition.Caps(h.TotalWeight(), k, 0.5)
		objective := func(ps []int32) int64 {
			p := partition.Partition{Parts: ps, K: k}
			op := partition.Partition{Parts: old, K: k}
			return alpha*partition.CutSize(h, p) + partition.MigrationVolume(h, op, p)
		}
		before := objective(append([]int32(nil), parts...))
		RefineKwayWithMigration(h, k, parts, old, alpha, caps, 4)
		after := objective(parts)
		return after <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
