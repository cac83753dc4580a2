package migrate

import (
	"sync"
	"testing"
	"time"

	"hyperbal/internal/hypergraph"
	"hyperbal/internal/mpi"
	"hyperbal/internal/partition"
)

// BuildStores constructs per-part stores with synthetic payloads sized by
// each vertex's Size (one byte per size unit).
func BuildStores(h *hypergraph.Hypergraph, owner partition.Partition) []Store {
	stores := make([]Store, owner.K)
	for i := range stores {
		stores[i] = make(Store)
	}
	for v := 0; v < h.NumVertices(); v++ {
		payload := make([]byte, h.Size(v))
		for i := range payload {
			payload[i] = byte(v)
		}
		stores[owner.Parts[v]][int32(v)] = payload
	}
	return stores
}

func sampleHG(n int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetSize(v, int64(1+v%4))
	}
	return b.Build()
}

func TestNewPlan(t *testing.T) {
	h := sampleHG(8)
	old := partition.Partition{K: 3, Parts: []int32{0, 0, 0, 1, 1, 1, 2, 2}}
	new := partition.Partition{K: 3, Parts: []int32{0, 1, 0, 1, 2, 1, 2, 0}}
	p, err := NewPlan(h, old, new)
	if err != nil {
		t.Fatal(err)
	}
	// moved: v1 (0->1, size 2), v4 (1->2, size 1), v7 (2->0, size 4)
	if len(p.Moves) != 3 {
		t.Fatalf("moves = %v", p.Moves)
	}
	if p.TotalVolume() != 2+1+4 {
		t.Fatalf("volume = %d, want 7", p.TotalVolume())
	}
	if p.Volume[0][1] != 2 || p.Volume[1][2] != 1 || p.Volume[2][0] != 4 {
		t.Fatalf("volume matrix wrong: %v", p.Volume)
	}
	if p.MaxOutbound() != 4 || p.MaxInbound() != 4 {
		t.Fatalf("bounds: out %d in %d", p.MaxOutbound(), p.MaxInbound())
	}
	// Plan volume agrees with the metric used everywhere else.
	if p.TotalVolume() != partition.MigrationVolume(h, old, new) {
		t.Fatal("plan volume != MigrationVolume")
	}
}

func TestNewPlanValidation(t *testing.T) {
	h := sampleHG(4)
	ok := partition.New(4, 2)
	if _, err := NewPlan(h, partition.New(3, 2), ok); err == nil {
		t.Fatal("expected error for short old partition")
	}
	if _, err := NewPlan(h, ok, partition.New(4, 3)); err == nil {
		t.Fatal("expected error for K mismatch")
	}
}

func TestExecuteMovesPayloads(t *testing.T) {
	h := sampleHG(12)
	k := 4
	old := partition.Partition{K: k, Parts: make([]int32, 12)}
	new := partition.Partition{K: k, Parts: make([]int32, 12)}
	for v := 0; v < 12; v++ {
		old.Parts[v] = int32(v % k)
		new.Parts[v] = int32((v + 1) % k) // everyone moves one part over
	}
	plan, err := NewPlan(h, old, new)
	if err != nil {
		t.Fatal(err)
	}
	stores := BuildStores(h, old)
	var mu sync.Mutex
	totalReceived := 0
	err = mpi.Run(k, func(c *mpi.Comm) error {
		got, err := Execute(c, plan, stores[c.Rank()])
		if err != nil {
			return err
		}
		mu.Lock()
		totalReceived += got
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if totalReceived != 12 {
		t.Fatalf("received %d vertices, want 12", totalReceived)
	}
	// Every store now holds exactly its new vertices with intact payloads.
	for v := 0; v < 12; v++ {
		store := stores[new.Parts[v]]
		data, ok := store[int32(v)]
		if !ok {
			t.Fatalf("vertex %d missing from its new owner", v)
		}
		if int64(len(data)) != h.Size(v) {
			t.Fatalf("vertex %d payload resized: %d != %d", v, len(data), h.Size(v))
		}
		for _, bb := range data {
			if bb != byte(v) {
				t.Fatalf("vertex %d payload corrupted", v)
			}
		}
	}
}

func TestExecuteNoMoves(t *testing.T) {
	h := sampleHG(6)
	old := partition.Partition{K: 2, Parts: []int32{0, 0, 0, 1, 1, 1}}
	plan, _ := NewPlan(h, old, old)
	stores := BuildStores(h, old)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		got, err := Execute(c, plan, stores[c.Rank()])
		if err != nil {
			return err
		}
		if got != 0 {
			t.Errorf("rank %d received %d, want 0", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExecuteWrongWorldSize(t *testing.T) {
	h := sampleHG(4)
	old := partition.Partition{K: 2, Parts: []int32{0, 0, 1, 1}}
	plan, _ := NewPlan(h, old, old)
	err := mpi.Run(3, func(c *mpi.Comm) error {
		_, err := Execute(c, plan, Store{})
		if err == nil {
			t.Error("expected world-size mismatch error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExecuteDeferredErrorSymmetry pins the error-handling contract of
// Execute: a rank that cannot produce a scheduled payload reports the
// error but still enters the Alltoall with its remaining payloads, so
// healthy peers neither deadlock nor lose the deliverable vertices. Run
// under a watchdog so a symmetry break fails fast as a DeadlockError.
func TestExecuteDeferredErrorSymmetry(t *testing.T) {
	h := sampleHG(6)
	old := partition.Partition{K: 2, Parts: []int32{0, 0, 0, 1, 1, 1}}
	new := partition.Partition{K: 2, Parts: []int32{1, 1, 0, 1, 0, 1}}
	// Schedule: rank 0 sends vertices 0 and 1; rank 1 sends vertex 4.
	plan, err := NewPlan(h, old, new)
	if err != nil {
		t.Fatal(err)
	}
	stores := BuildStores(h, old)
	delete(stores[0], 0) // rank 0 cannot produce vertex 0
	var mu sync.Mutex
	received := make([]int, 2)
	execErrs := make([]error, 2)
	_, err = mpi.RunWith(2, mpi.Options{Watchdog: 30 * time.Second}, func(c *mpi.Comm) error {
		n, execErr := Execute(c, plan, stores[c.Rank()])
		mu.Lock()
		received[c.Rank()] = n
		execErrs[c.Rank()] = execErr
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if execErrs[0] == nil {
		t.Error("rank 0: want missing-vertex error, got nil")
	}
	if execErrs[1] != nil {
		t.Errorf("rank 1: unexpected error %v", execErrs[1])
	}
	// Vertex 1 still made it across despite rank 0's error; vertex 4 came
	// back the other way.
	if received[1] != 1 {
		t.Errorf("rank 1 received %d vertices, want 1 (vertex 1)", received[1])
	}
	if received[0] != 1 {
		t.Errorf("rank 0 received %d vertices, want 1 (vertex 4)", received[0])
	}
	if _, ok := stores[1][1]; !ok {
		t.Error("vertex 1 payload missing from rank 1's store")
	}
	if _, ok := stores[0][4]; !ok {
		t.Error("vertex 4 payload missing from rank 0's store")
	}
}

// TestExecuteDuplicateReceive drives the other deferred-error branch: a
// destination that already holds an incoming vertex keeps its copy,
// reports the duplicate, and the exchange still completes on both ranks.
func TestExecuteDuplicateReceive(t *testing.T) {
	h := sampleHG(4)
	old := partition.Partition{K: 2, Parts: []int32{0, 0, 1, 1}}
	new := partition.Partition{K: 2, Parts: []int32{1, 0, 1, 1}}
	plan, err := NewPlan(h, old, new)
	if err != nil {
		t.Fatal(err)
	}
	stores := BuildStores(h, old)
	stores[1][0] = []byte{0xEE} // rank 1 somehow already holds vertex 0
	var mu sync.Mutex
	execErrs := make([]error, 2)
	_, err = mpi.RunWith(2, mpi.Options{Watchdog: 30 * time.Second}, func(c *mpi.Comm) error {
		_, execErr := Execute(c, plan, stores[c.Rank()])
		mu.Lock()
		execErrs[c.Rank()] = execErr
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if execErrs[1] == nil {
		t.Error("rank 1: want duplicate-vertex error, got nil")
	}
	if got := stores[1][0]; len(got) != 1 || got[0] != 0xEE {
		t.Errorf("rank 1's pre-existing payload overwritten: %v", got)
	}
}

func TestExecuteMissingVertex(t *testing.T) {
	h := sampleHG(4)
	old := partition.Partition{K: 2, Parts: []int32{0, 0, 1, 1}}
	new := partition.Partition{K: 2, Parts: []int32{1, 0, 1, 1}}
	plan, _ := NewPlan(h, old, new)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		store := Store{} // rank 0's store is missing vertex 0
		if c.Rank() == 1 {
			store[2] = []byte{1}
			store[3] = []byte{1}
		}
		_, err := Execute(c, plan, store)
		if c.Rank() == 0 && err == nil {
			t.Error("expected missing-vertex error on rank 0")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
