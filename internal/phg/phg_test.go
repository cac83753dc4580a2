package phg

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hyperbal/internal/hgp"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/mpi"
	"hyperbal/internal/partition"
)

const testWatchdog = 60 * time.Second

func grid2D(w, h int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(w * h)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddNet(1, id(x, y), id(x+1, y))
			}
			if y+1 < h {
				b.AddNet(1, id(x, y), id(x, y+1))
			}
		}
	}
	return b.Build()
}

func randomHG(rng *rand.Rand, n, nets, maxPins int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetWeight(v, int64(1+rng.Intn(3)))
		b.SetSize(v, int64(1+rng.Intn(3)))
	}
	for i := 0; i < nets; i++ {
		sz := 2 + rng.Intn(maxPins-1)
		if sz > n {
			sz = n
		}
		b.AddNet(int64(1+rng.Intn(3)), rng.Perm(n)[:sz]...)
	}
	return b.Build()
}

// runParallel runs phg.Partition on np ranks under the substrate watchdog
// (a stall fails with a DeadlockError naming the blocked ranks) and
// returns the rank-0 result after checking all ranks agree.
func runParallel(t *testing.T, np int, h *hypergraph.Hypergraph, opt Options) partition.Partition {
	t.Helper()
	return runParallelFault(t, np, h, opt, nil)
}

// runParallelFault is runParallel under an injected fault schedule.
func runParallelFault(t *testing.T, np int, h *hypergraph.Hypergraph, opt Options, plan *mpi.FaultPlan) partition.Partition {
	t.Helper()
	results := make([]partition.Partition, np)
	var mu sync.Mutex
	_, err := mpi.RunWith(np, mpi.Options{Watchdog: testWatchdog, Fault: plan}, func(c *mpi.Comm) error {
		p, err := Partition(c, h, opt)
		if err != nil {
			return err
		}
		mu.Lock()
		results[c.Rank()] = p
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < np; r++ {
		for v := range results[0].Parts {
			if results[r].Parts[v] != results[0].Parts[v] {
				t.Fatalf("rank %d disagrees with rank 0 at vertex %d", r, v)
			}
		}
	}
	return results[0]
}

func TestParallelPartitionGrid(t *testing.T) {
	h := grid2D(20, 20)
	for _, np := range []int{1, 2, 4, 8} {
		p := runParallel(t, np, h, Options{Serial: hgp.Options{K: 4, Imbalance: 0.05, Seed: 1}})
		if err := p.Validate(); err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
		w := partition.Weights(h, p)
		if !partition.IsBalanced(w, 0.15) {
			t.Fatalf("np=%d: imbalanced %v", np, w)
		}
		if cut := partition.CutSize(h, p); cut > 240 {
			t.Fatalf("np=%d: cut %d too high", np, cut)
		}
	}
}

func TestParallelFixedVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := randomHG(rng, 200, 300, 5)
	k := 4
	fixed := make([]int32, 200)
	for v := range fixed {
		fixed[v] = hypergraph.Free
	}
	for v := 0; v < 40; v++ {
		fixed[v] = int32(v % k)
	}
	hf := h.WithFixed(fixed)
	p := runParallel(t, 4, hf, Options{Serial: hgp.Options{K: k, Imbalance: 0.10, Seed: 5}})
	for v := 0; v < 40; v++ {
		if p.Of(v) != v%k {
			t.Fatalf("fixed vertex %d landed on %d, want %d", v, p.Of(v), v%k)
		}
	}
}

func TestParallelRepartitioningModel(t *testing.T) {
	// End-to-end: partition, then repartition via the augmented hypergraph
	// (migration nets + fixed partition vertices) in parallel.
	h := grid2D(16, 16)
	k := 4
	opt := Options{Serial: hgp.Options{K: k, Imbalance: 0.05, Seed: 7}}
	old := runParallel(t, 4, h, opt)

	// Build the repartitioning hypergraph by hand (avoid core import cycle
	// risk: core does not depend on phg, so we mirror its construction).
	n := h.NumVertices()
	b := hypergraph.NewBuilder(n + k)
	for v := 0; v < n; v++ {
		b.SetWeight(v, h.Weight(v))
		b.SetSize(v, h.Size(v))
	}
	for i := 0; i < k; i++ {
		b.SetWeight(n+i, 0)
		b.Fix(n+i, i)
	}
	alpha := int64(1) // strong migration anchor
	for netID := 0; netID < h.NumNets(); netID++ {
		b.AddNetInt32(h.Cost(netID)*alpha, h.Pins(netID))
	}
	for v := 0; v < n; v++ {
		b.AddNet(h.Size(v), v, n+int(old.Parts[v]))
	}
	aug := b.Build()

	p := runParallel(t, 4, aug, Options{Serial: hgp.Options{K: k, Imbalance: 0.05, Seed: 9}})
	for i := 0; i < k; i++ {
		if p.Of(n+i) != i {
			t.Fatalf("partition vertex %d moved to %d", i, p.Of(n+i))
		}
	}
	// The model inequality: the chosen partition's augmented cut must not
	// exceed that of staying put (staying put is always feasible).
	stay := partition.Partition{K: k, Parts: make([]int32, n+k)}
	copy(stay.Parts, old.Parts)
	for i := 0; i < k; i++ {
		stay.Parts[n+i] = int32(i)
	}
	if got, lim := partition.CutSize(aug, p), partition.CutSize(aug, stay); got > lim {
		t.Fatalf("repartitioned model cut %d worse than staying put %d", got, lim)
	}
	// At alpha=1 migration dominates: most vertices must stay home.
	moved := 0
	for v := 0; v < n; v++ {
		if p.Parts[v] != old.Parts[v] {
			moved++
		}
	}
	if moved > n/5 {
		t.Fatalf("at alpha=1 parallel repartitioning moved %d of %d vertices", moved, n)
	}
}

func TestParallelQualityClosesToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := randomHG(rng, 300, 500, 6)
	sp, err := hgp.Partition(h, hgp.Options{K: 4, Imbalance: 0.05, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	serialCut := partition.CutSize(h, sp)
	pp := runParallel(t, 4, h, Options{Serial: hgp.Options{K: 4, Imbalance: 0.05, Seed: 13}})
	parallelCut := partition.CutSize(h, pp)
	if float64(parallelCut) > 2.0*float64(serialCut)+20 {
		t.Fatalf("parallel cut %d much worse than serial %d", parallelCut, serialCut)
	}
}

func TestParallelIPMMatchConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	h := randomHG(rng, 120, 200, 5)
	fixed := make([]int32, 120)
	for v := range fixed {
		fixed[v] = hypergraph.Free
	}
	for v := 0; v < 30; v++ {
		fixed[v] = int32(v % 3)
	}
	hf := h.WithFixed(fixed)

	matches := make([][]int32, 4)
	err := mpi.Run(4, func(c *mpi.Comm) error {
		rng := rand.New(rand.NewSource(100 + int64(c.Rank())))
		m := parallelIPM(c, hf, rng, hgp.MaxNetSize, false)
		matches[c.Rank()] = m
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// identical on all ranks
	for r := 1; r < 4; r++ {
		for v := range matches[0] {
			if matches[r][v] != matches[0][v] {
				t.Fatalf("rank %d match vector differs at %d", r, v)
			}
		}
	}
	// legal: symmetric and filter-respecting
	m := matches[0]
	for v := 0; v < 120; v++ {
		u := int(m[v])
		if int(m[u]) != v {
			t.Fatalf("match not symmetric at %d", v)
		}
		if u != v {
			fv, fu := hf.Fixed(v), hf.Fixed(u)
			if fv != hypergraph.Free && fu != hypergraph.Free && fv != fu {
				t.Fatalf("matched across fixed parts: %d,%d", v, u)
			}
		}
	}
	// it actually matched something
	matched := 0
	for v := range m {
		if int(m[v]) != v {
			matched++
		}
	}
	if matched == 0 {
		t.Fatal("parallel IPM matched nothing")
	}
}

func TestBlockRange(t *testing.T) {
	for _, tc := range []struct{ n, size int }{{10, 3}, {7, 7}, {5, 8}, {100, 4}} {
		covered := 0
		prevHi := 0
		for r := 0; r < tc.size; r++ {
			lo, hi := blockRange(tc.n, tc.size, r)
			if lo != prevHi {
				t.Fatalf("n=%d size=%d rank=%d: gap at %d", tc.n, tc.size, r, lo)
			}
			if hi < lo {
				t.Fatalf("negative block")
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.n {
			t.Fatalf("n=%d size=%d: covered %d", tc.n, tc.size, covered)
		}
	}
}

func TestParallelK1(t *testing.T) {
	h := grid2D(4, 4)
	p := runParallel(t, 2, h, Options{Serial: hgp.Options{K: 1}})
	for _, q := range p.Parts {
		if q != 0 {
			t.Fatal("K=1 must map to part 0")
		}
	}
}

func TestParallelTrafficAccounted(t *testing.T) {
	h := grid2D(12, 12)
	stats, err := mpi.RunStats(4, func(c *mpi.Comm) error {
		_, err := Partition(c, h, Options{Serial: hgp.Options{K: 4, Seed: 21}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages.Load() == 0 || stats.Bytes.Load() == 0 {
		t.Fatalf("no substrate traffic recorded: %+v", stats)
	}
}

func ExamplePartition() {
	h := grid2D(8, 8)
	_ = mpi.Run(4, func(c *mpi.Comm) error {
		p, err := Partition(c, h, Options{Serial: hgp.Options{K: 2, Seed: 1}})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			w := partition.Weights(h, p)
			fmt.Println(len(w) == 2 && w[0]+w[1] == 64)
		}
		return nil
	})
	// Output: true
}

func TestLocalIPMOption(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	h := randomHG(rng, 300, 450, 5)
	p := runParallel(t, 4, h, Options{
		Serial:   hgp.Options{K: 4, Imbalance: 0.08, Seed: 33},
		LocalIPM: true,
	})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	w := partition.Weights(h, p)
	if !partition.IsBalanced(w, 0.20) {
		t.Fatalf("local-IPM partition imbalanced: %v", w)
	}
	// Quality should stay in the same league as global IPM.
	pg := runParallel(t, 4, h, Options{Serial: hgp.Options{K: 4, Imbalance: 0.08, Seed: 33}})
	cutL := partition.CutSize(h, p)
	cutG := partition.CutSize(h, pg)
	if float64(cutL) > 1.7*float64(cutG)+20 {
		t.Fatalf("local IPM quality collapsed: %d vs %d", cutL, cutG)
	}
}

func TestLocalIPMRespectsFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	h := randomHG(rng, 160, 240, 5)
	k := 4
	fixed := make([]int32, 160)
	for v := range fixed {
		fixed[v] = hypergraph.Free
	}
	for v := 0; v < 32; v++ {
		fixed[v] = int32(v % k)
	}
	hf := h.WithFixed(fixed)
	p := runParallel(t, 4, hf, Options{Serial: hgp.Options{K: k, Seed: 37}, LocalIPM: true})
	for v := 0; v < 32; v++ {
		if p.Of(v) != v%k {
			t.Fatalf("fixed vertex %d landed on %d", v, p.Of(v))
		}
	}
}
