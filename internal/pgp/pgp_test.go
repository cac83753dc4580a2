package pgp

import (
	"math/rand"
	"testing"
	"time"

	"hyperbal/internal/gp"
	"hyperbal/internal/graph"
	"hyperbal/internal/mpi"
	"hyperbal/internal/partition"
)

func grid(w, h int) *graph.Graph {
	b := graph.NewBuilder(w * h)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < h {
				b.AddEdge(id(x, y), id(x, y+1), 1)
			}
		}
	}
	return b.Build()
}

// runParallel runs fn on np ranks under the substrate watchdog (a stall
// fails with a DeadlockError naming the blocked ranks) and returns the
// rank-0 partition after checking all ranks agree.
func runParallel(t *testing.T, np int, fn func(c *mpi.Comm) (partition.Partition, error)) partition.Partition {
	t.Helper()
	return runParallelFault(t, np, nil, fn)
}

// runParallelFault is runParallel under an injected fault schedule.
func runParallelFault(t *testing.T, np int, plan *mpi.FaultPlan, fn func(c *mpi.Comm) (partition.Partition, error)) partition.Partition {
	t.Helper()
	results := make([]partition.Partition, np)
	_, err := mpi.RunWith(np, mpi.Options{Watchdog: 60 * time.Second, Fault: plan}, func(c *mpi.Comm) error {
		p, err := fn(c)
		if err != nil {
			return err
		}
		results[c.Rank()] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < np; r++ {
		for v := range results[0].Parts {
			if results[r].Parts[v] != results[0].Parts[v] {
				t.Fatalf("rank %d disagrees at vertex %d", r, v)
			}
		}
	}
	return results[0]
}

func TestParallelAdaptiveAnchorsAtLowITR(t *testing.T) {
	g := grid(16, 16)
	old, err := gp.Partition(g, gp.Options{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := runParallel(t, 4, func(c *mpi.Comm) (partition.Partition, error) {
		return AdaptiveRepart(c, g, old, 1, gp.Options{K: 4, Seed: 5})
	})
	mig := partition.GraphMigrationVolume(g, old, p)
	if mig > int64(g.NumVertices()/5) {
		t.Fatalf("ITR=1 parallel adaptive moved %d (too much on a balanced problem)", mig)
	}
}

func TestParallelAdaptiveRebalances(t *testing.T) {
	// hot stripe as in the serial test
	w, h := 16, 16
	b := graph.NewBuilder(w * h)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < h {
				b.AddEdge(id(x, y), id(x, y+1), 1)
			}
			if x < w/4 {
				b.SetWeight(id(x, y), 8)
			}
		}
	}
	g := b.Build()
	old := partition.New(w*h, 4)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			old.Assign(id(x, y), x/(w/4))
		}
	}
	oldImb := partition.Imbalance(partition.GraphWeights(g, old))
	p := runParallel(t, 4, func(c *mpi.Comm) (partition.Partition, error) {
		return AdaptiveRepart(c, g, old, 100, gp.Options{K: 4, Seed: 7, Imbalance: 0.1})
	})
	newImb := partition.Imbalance(partition.GraphWeights(g, p))
	if newImb >= oldImb/2 {
		t.Fatalf("parallel adaptive failed to rebalance: %.2f -> %.2f", oldImb, newImb)
	}
}

func TestParallelAdaptiveValidation(t *testing.T) {
	g := grid(4, 4)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		_, err := AdaptiveRepart(c, g, partition.New(3, 2), 1, gp.Options{K: 2})
		if err == nil {
			t.Error("expected length mismatch error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParallelK1(t *testing.T) {
	g := grid(4, 4)
	p := runParallel(t, 2, func(c *mpi.Comm) (partition.Partition, error) {
		return AdaptiveRepart(c, g, partition.New(g.NumVertices(), 1), 1, gp.Options{K: 1})
	})
	for _, q := range p.Parts {
		if q != 0 {
			t.Fatal("K=1 must assign part 0")
		}
	}
}

func TestParallelHEMLegality(t *testing.T) {
	g := grid(12, 12)
	labels := make([]int32, g.NumVertices())
	for v := range labels {
		labels[v] = int32(v % 3)
	}
	matches := make([][]int32, 3)
	err := mpi.Run(3, func(c *mpi.Comm) error {
		rng := rand.New(rand.NewSource(int64(c.Rank() + 1)))
		m := parallelHEM(c, g, labels, rng)
		matches[c.Rank()] = m
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := matches[0]
	for r := 1; r < 3; r++ {
		for v := range m {
			if matches[r][v] != m[v] {
				t.Fatalf("rank %d match differs at %d", r, v)
			}
		}
	}
	for v := range m {
		u := int(m[v])
		if int(m[u]) != v {
			t.Fatalf("asymmetric match at %d", v)
		}
		if u != v {
			if labels[u] != labels[v] {
				t.Fatalf("matched across labels: %d,%d", v, u)
			}
			if !g.HasEdge(u, v) {
				t.Fatalf("matched non-adjacent: %d,%d", v, u)
			}
		}
	}
}
