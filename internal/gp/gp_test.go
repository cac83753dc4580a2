package gp

import (
	"math/rand"
	"testing"

	"hyperbal/internal/gaintree"
	"hyperbal/internal/graph"
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

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetWeight(v, int64(1+rng.Intn(3)))
		b.SetSize(v, int64(1+rng.Intn(3)))
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v, int64(1+rng.Intn(4)))
		}
	}
	return b.Build()
}

func TestPartitionBisection(t *testing.T) {
	g := grid(16, 16)
	p, err := Partition(g, Options{K: 2, Imbalance: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	w := partition.GraphWeights(g, p)
	if !partition.IsBalanced(w, 0.05) {
		t.Fatalf("imbalanced: %v", w)
	}
	if cut := partition.EdgeCut(g, p); cut > 32 {
		t.Fatalf("cut = %d, want <= 32 on 16x16 grid", cut)
	}
}

func TestPartitionKway(t *testing.T) {
	g := grid(20, 20)
	for _, k := range []int{4, 8} {
		p, err := Partition(g, Options{K: k, Imbalance: 0.05, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		w := partition.GraphWeights(g, p)
		if !partition.IsBalanced(w, 0.10) {
			t.Fatalf("k=%d imbalanced: %v", k, w)
		}
		if cut := partition.EdgeCut(g, p); cut > int64(60*k) {
			t.Fatalf("k=%d cut = %d too high", k, cut)
		}
	}
}

func TestPartitionK1(t *testing.T) {
	g := grid(4, 4)
	p, err := Partition(g, Options{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range p.Parts {
		if q != 0 {
			t.Fatal("K=1 should assign all to part 0")
		}
	}
}

func TestHEMLegality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 100, 300)
	match := HEM(g, rng, nil)
	for v := 0; v < 100; v++ {
		u := int(match[v])
		if int(match[u]) != v {
			t.Fatalf("match not symmetric at %d", v)
		}
		if u != v && !g.HasEdge(u, v) {
			t.Fatalf("matched non-adjacent pair %d,%d", u, v)
		}
	}
}

func TestHEMSamePartRestriction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 80, 240)
	labels := make([]int32, 80)
	for v := range labels {
		labels[v] = int32(v % 4)
	}
	match := HEM(g, rng, labels)
	for v := 0; v < 80; v++ {
		u := int(match[v])
		if u != v && labels[u] != labels[v] {
			t.Fatalf("matched across parts: %d(%d) with %d(%d)", v, labels[v], u, labels[u])
		}
	}
}

func TestContractConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 90, 250)
	labels := make([]int32, 90)
	for v := range labels {
		labels[v] = int32(v % 3)
	}
	match := HEM(g, rng, labels)
	coarse, cmap, coarseOld := Contract(g, match, labels)
	if err := coarse.Validate(); err != nil {
		t.Fatal(err)
	}
	if coarse.TotalWeight() != g.TotalWeight() {
		t.Fatalf("weight not conserved: %d != %d", coarse.TotalWeight(), g.TotalWeight())
	}
	// edge cut of projected partitions is preserved
	k := 3
	cp := make([]int32, coarse.NumVertices())
	for v := range cp {
		cp[v] = int32(rng.Intn(k))
	}
	fp := Project(cmap, cp)
	cutC := partition.EdgeCut(coarse, partition.Partition{Parts: cp, K: k})
	cutF := partition.EdgeCut(g, partition.Partition{Parts: fp, K: k})
	if cutC != cutF {
		t.Fatalf("projected cut %d != coarse cut %d", cutF, cutC)
	}
	// coarse old labels consistent with constituents
	for v := 0; v < 90; v++ {
		if coarseOld[cmap[v]] != labels[v] {
			t.Fatalf("coarse old label mismatch at %d", v)
		}
	}
}

// TestFM2NeverWorsens runs fm2 from random starts, under loose caps and
// under caps a random start can exceed: the cut must not rise, fm2 must
// return the cut of the partition it leaves, and a start within the caps
// must end within them.
func TestFM2NeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ord gaintree.Order
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 80, 200)
		parts := make([]int32, 80)
		for v := range parts {
			parts[v] = int32(rng.Intn(2))
		}
		before := EdgeCutOf(g, parts)
		frac := []float64{0.6, 0.52}[trial%2]
		cap := int64(float64(g.TotalWeight()) * frac)
		within := func() bool {
			w := partition.GraphWeights(g, partition.Partition{Parts: parts, K: 2})
			return w[0] <= cap && w[1] <= cap
		}
		startWithin := within()
		ord.Build(g.Weights())
		got := fm2(g, parts, cap, cap, 4, &ord)
		after := EdgeCutOf(g, parts)
		if after > before {
			t.Fatalf("FM worsened cut %d -> %d", before, after)
		}
		if got != after {
			t.Fatalf("fm2 returned cut %d, its partition's cut is %d", got, after)
		}
		if startWithin && !within() {
			t.Fatalf("trial %d: a start within the caps %d ended outside them", trial, cap)
		}
	}
}

// TestMaxFitMatchesRescueRule holds gp's closed-form limit to the fit test
// fm2 applied inline before it queried the gain tree. Over small caps and
// side weights, with either side as the source, the weights that test
// accepts must be exactly those up to maxFit. The table includes rescues
// into a full or over-cap destination, which hgp's rule refuses.
func TestMaxFitMatchesRescueRule(t *testing.T) {
	// fits is the negation of the old stash condition, verbatim.
	fits := func(w, caps [2]int64, from int32, wv int64) bool {
		to := 1 - from
		return !(w[to]+wv > caps[to] && !(w[from] > caps[from] && w[to]+wv-caps[to] < w[from]-caps[from]))
	}
	for cap0 := int64(0); cap0 <= 6; cap0++ {
		for cap1 := int64(0); cap1 <= 6; cap1++ {
			for w0 := int64(0); w0 <= 9; w0++ {
				for w1 := int64(0); w1 <= 9; w1++ {
					w, caps := [2]int64{w0, w1}, [2]int64{cap0, cap1}
					for from := int32(0); from < 2; from++ {
						limit := maxFit(w, caps, from)
						for wv := int64(0); wv <= w0+w1+cap0+cap1+2; wv++ {
							if got := wv <= limit; got != fits(w, caps, from, wv) {
								t.Fatalf("w %v caps %v from %d weight %d: maxFit %d says fits=%v, the rule says %v", w, caps, from, wv, limit, got, !got)
							}
						}
					}
				}
			}
		}
	}
	// Destination room a = -3, source overflow 10: weights up to 6 fit.
	if got := maxFit([2]int64{13, 8}, [2]int64{3, 5}, 0); got != 6 {
		t.Fatalf("maxFit with a = -3, oF = 10: %d, want 6", got)
	}
}

func TestEdGainMatchesCutDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, 40, 120)
	parts := make([]int32, 40)
	for v := range parts {
		parts[v] = int32(rng.Intn(2))
	}
	for i := 0; i < 100; i++ {
		v := rng.Intn(40)
		gain := ed(g, parts, v)
		before := EdgeCutOf(g, parts)
		parts[v] = 1 - parts[v]
		after := EdgeCutOf(g, parts)
		if before-after != gain {
			t.Fatalf("ed gain %d but cut delta %d", gain, before-after)
		}
	}
}

func TestAdaptiveRepartStaysClose(t *testing.T) {
	// With a huge ITR... small ITR (=1) migration dominates: the
	// repartitioner should barely move anything when the old partition is
	// already balanced.
	g := grid(16, 16)
	old, err := Partition(g, Options{K: 4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	got, err := AdaptiveRepart(g, old, 1, Options{K: 4, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int64, g.NumVertices())
	for v := range sizes {
		sizes[v] = g.Size(v)
	}
	mig := partition.GraphMigrationVolume(g, old, got)
	if mig > g.TotalWeight()/10 {
		t.Fatalf("adaptive repart moved too much on balanced input: migration %d", mig)
	}
	w := partition.GraphWeights(g, got)
	if !partition.IsBalanced(w, 0.25) {
		t.Fatalf("adaptive repart output imbalanced: %v", w)
	}
}

func TestAdaptiveRepartRebalances(t *testing.T) {
	// Unbalance the old partition by inflating weights in part 0's region;
	// AdaptiveRepart must shed load from part 0.
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
				b.SetWeight(id(x, y), 8) // hot stripe
			}
		}
	}
	g := b.Build()
	old := partition.New(w*h, 4)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			old.Assign(id(x, y), x/(w/4)) // vertical stripes
		}
	}
	oldW := partition.GraphWeights(g, old)
	if partition.IsBalanced(oldW, 0.3) {
		t.Fatalf("test setup: old partition should be imbalanced, got %v", oldW)
	}
	got, err := AdaptiveRepart(g, old, 100, Options{K: 4, Seed: 23, Imbalance: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	newW := partition.GraphWeights(g, got)
	if partition.Imbalance(newW) >= partition.Imbalance(oldW)/2 {
		t.Fatalf("adaptive repart failed to rebalance: %v (imb %.2f) -> %v (imb %.2f)",
			oldW, partition.Imbalance(oldW), newW, partition.Imbalance(newW))
	}
}

func TestAdaptiveRepartITRTradeoff(t *testing.T) {
	// Larger ITR weights communication more, so migration should not
	// decrease as ITR grows (on average; deterministic here by seed).
	rng := rand.New(rand.NewSource(29))
	g := randomGraph(rng, 300, 1200)
	old, err := Partition(g, Options{K: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the old partition so there is something to fix.
	oldP := old.Clone()
	for i := 0; i < 60; i++ {
		oldP.Parts[rng.Intn(300)] = int32(rng.Intn(4))
	}
	lowITR, err := AdaptiveRepart(g, oldP, 1, Options{K: 4, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	highITR, err := AdaptiveRepart(g, oldP, 1000, Options{K: 4, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	migLow := partition.GraphMigrationVolume(g, oldP, lowITR)
	migHigh := partition.GraphMigrationVolume(g, oldP, highITR)
	cutLow := partition.EdgeCut(g, lowITR)
	cutHigh := partition.EdgeCut(g, highITR)
	// Each solution should win (within heuristic slack) under its own
	// combined objective itr*cut + mig.
	objLowAtLow := 1*cutLow + migLow
	objHighAtLow := 1*cutHigh + migHigh
	if float64(objLowAtLow) > 1.10*float64(objHighAtLow) {
		t.Fatalf("ITR=1 solution loses under its own objective: %d vs %d", objLowAtLow, objHighAtLow)
	}
	objLowAtHigh := 1000*cutLow + migLow
	objHighAtHigh := 1000*cutHigh + migHigh
	if float64(objHighAtHigh) > 1.10*float64(objLowAtHigh) {
		t.Fatalf("ITR=1000 solution loses under its own objective: %d vs %d", objHighAtHigh, objLowAtHigh)
	}
}

func TestAdaptiveRepartValidation(t *testing.T) {
	g := grid(4, 4)
	bad := partition.Partition{K: 2, Parts: make([]int32, 3)} // wrong length
	if _, err := AdaptiveRepart(g, bad, 10, Options{K: 2}); err == nil {
		t.Fatal("expected error for mismatched old partition")
	}
	badPart := partition.New(16, 2)
	badPart.Parts[0] = 9
	if _, err := AdaptiveRepart(g, badPart, 10, Options{K: 2}); err == nil {
		t.Fatal("expected error for out-of-range old part")
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := randomGraph(rng, 150, 500)
	p1, _ := Partition(g, Options{K: 4, Seed: 43})
	p2, _ := Partition(g, Options{K: 4, Seed: 43})
	for v := range p1.Parts {
		if p1.Parts[v] != p2.Parts[v] {
			t.Fatal("same seed, different result")
		}
	}
}
