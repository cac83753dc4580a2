package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

// figure1 builds the epoch-j hypergraph of the paper's Figure 1 worked
// example. Vertices (paper -> index): 1..7 -> 0..6, a -> 7, b -> 8.
// Communication nets: {2,3,a}, {5,6,7}, {4,6,a}. Every vertex has size 3
// (the example's migration cost per vertex). Epoch j-1 assignment (epoch
// j-1 parts were {1,2,3}, {4,5,6}, {7,8,9}; a was created on V1, b on V3):
// V1 = {1,2,3,a}, V2 = {4,5,6}, V3 = {7,b}; alpha_j = 5.
func figure1() (*hypergraph.Hypergraph, partition.Partition) {
	b := hypergraph.NewBuilder(9)
	for v := 0; v < 9; v++ {
		b.SetSize(v, 3)
	}
	b.AddNet(1, 1, 2, 7) // {2,3,a}
	b.AddNet(1, 4, 5, 6) // {5,6,7}
	b.AddNet(1, 3, 5, 7) // {4,6,a}
	h := b.Build()
	old := partition.Partition{K: 3, Parts: []int32{0, 0, 0, 1, 1, 1, 2, 0, 2}}
	return h, old
}

// TestFigure1WorkedExample verifies the arithmetic of Section 3 end to
// end: with vertices 3 and 6 moved to V2 and V3 respectively, the total
// model cut must be 26 = 20 (communication) + 6 (migration).
func TestFigure1WorkedExample(t *testing.T) {
	h, old := figure1()
	r, err := BuildRepartition(h, old, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Augmented hypergraph shape: 9 + 3 vertices, 3 + 9 nets.
	if r.H.NumVertices() != 12 {
		t.Fatalf("augmented |V| = %d, want 12", r.H.NumVertices())
	}
	if r.H.NumNets() != 12 {
		t.Fatalf("augmented |N| = %d, want 12", r.H.NumNets())
	}
	// The paper's final assignment: vertex 3 (index 2) -> V2, vertex 6
	// (index 5) -> V3; everything else keeps its epoch j-1 part.
	newP := partition.Partition{K: 3, Parts: []int32{0, 0, 1, 1, 1, 2, 2, 0, 2}}
	aug := r.Extend(newP)
	if got := r.ModelCut(aug); got != 26 {
		t.Fatalf("model cut = %d, want 26 (= 20 comm + 6 migration)", got)
	}
	// Decompose: communication = alpha * cut(H^j), migration = moved sizes.
	comm := partition.CutSize(h, newP) // unscaled per-iteration volume
	if comm*5 != 20 {
		t.Fatalf("alpha*comm = %d, want 20", comm*5)
	}
	mig := ComputeMigration(h, old, newP)
	if mig.Volume != 6 || mig.Moved != 2 {
		t.Fatalf("migration = %+v, want volume 6, moved 2", mig)
	}
}

// The central identity: cut(H̄, extended p) == alpha*cut(H, p) + mig(old,p)
// for arbitrary partitions, hypergraphs and alphas.
func TestQuickModelIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		k := 2 + rng.Intn(5)
		alpha := int64(1 + rng.Intn(50))
		b := hypergraph.NewBuilder(n)
		for v := 0; v < n; v++ {
			b.SetWeight(v, int64(1+rng.Intn(5)))
			b.SetSize(v, int64(1+rng.Intn(7)))
		}
		for i := 0; i < rng.Intn(3*n); i++ {
			sz := 2 + rng.Intn(5)
			if sz > n {
				sz = n
			}
			b.AddNet(int64(1+rng.Intn(4)), rng.Perm(n)[:sz]...)
		}
		h := b.Build()
		old := partition.Partition{K: k, Parts: make([]int32, n)}
		newP := partition.Partition{K: k, Parts: make([]int32, n)}
		for v := 0; v < n; v++ {
			old.Parts[v] = int32(rng.Intn(k))
			newP.Parts[v] = int32(rng.Intn(k))
		}
		r, err := BuildRepartition(h, old, k, alpha)
		if err != nil {
			return false
		}
		want := alpha*partition.CutSize(h, newP) + partition.MigrationVolume(h, old, newP)
		return r.ModelCut(r.Extend(newP)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRepartitionValidation(t *testing.T) {
	h, old := figure1()
	if _, err := BuildRepartition(h, partition.Partition{K: 3, Parts: make([]int32, 2)}, 3, 5); err == nil {
		t.Fatal("expected error for short old partition")
	}
	if _, err := BuildRepartition(h, old, 3, 0); err == nil {
		t.Fatal("expected error for alpha < 1")
	}
	if _, err := BuildRepartition(h, old, 0, 5); err == nil {
		t.Fatal("expected error for k < 1")
	}
	bad := old.Clone()
	bad.Parts[0] = 99
	if _, err := BuildRepartition(h, bad, 3, 5); err == nil {
		t.Fatal("expected error for out-of-range old part")
	}
}

func TestDecodeChecksFixedConstraint(t *testing.T) {
	h, old := figure1()
	r, _ := BuildRepartition(h, old, 3, 5)
	aug := r.Extend(old)
	// corrupt a partition vertex assignment
	aug.Parts[9] = 2
	if _, _, err := r.Decode(h, aug); err == nil {
		t.Fatal("expected error when a partition vertex moves")
	}
	aug.Parts[9] = 0
	p, mig, err := r.Decode(h, aug)
	if err != nil {
		t.Fatal(err)
	}
	if mig.Volume != 0 || mig.Moved != 0 {
		t.Fatalf("identity decode should have zero migration, got %+v", mig)
	}
	for v := range p.Parts {
		if p.Parts[v] != old.Parts[v] {
			t.Fatal("decode changed assignments")
		}
	}
}

func TestDecodeWrongLength(t *testing.T) {
	h, old := figure1()
	r, _ := BuildRepartition(h, old, 3, 5)
	if _, _, err := r.Decode(h, old); err == nil { // not extended
		t.Fatal("expected error for non-augmented partition length")
	}
}

func TestPartitionVerticesProperties(t *testing.T) {
	h, old := figure1()
	r, _ := BuildRepartition(h, old, 3, 5)
	for i := 0; i < 3; i++ {
		u := r.NumVertices + i
		if r.H.Weight(u) != 0 {
			t.Fatalf("partition vertex %d has nonzero weight", i)
		}
		if r.H.Fixed(u) != int32(i) {
			t.Fatalf("partition vertex %d not fixed to part %d", i, i)
		}
	}
	// Original vertices are free.
	for v := 0; v < r.NumVertices; v++ {
		if r.H.Fixed(v) != hypergraph.Free {
			t.Fatalf("computation vertex %d unexpectedly fixed", v)
		}
	}
	// Balance is unaffected by partition vertices (zero weight).
	if r.H.TotalWeight() != h.TotalWeight() {
		t.Fatal("augmentation changed total weight")
	}
}

func TestCostModel(t *testing.T) {
	m := CostModel{CommSecPerUnit: 1, MigSecPerUnit: 2, CompSecPerIter: 10}
	r := Result{CommVolume: 3, MigrationVolume: 5}
	e := m.Evaluate(r, 4)
	if e.Comp != 40 || e.Comm != 12 || e.Mig != 10 {
		t.Fatalf("estimate = %+v", e)
	}
	if e.Total() != 62 {
		t.Fatalf("total = %v, want 62", e.Total())
	}
}

func TestResultCostHelpers(t *testing.T) {
	r := Result{CommVolume: 7, MigrationVolume: 20}
	if r.TotalCost(10) != 90 {
		t.Fatalf("TotalCost = %d, want 90", r.TotalCost(10))
	}
}
