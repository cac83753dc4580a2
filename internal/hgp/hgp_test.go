package hgp

import (
	"math/rand"
	"testing"

	"hyperbal/internal/graph"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

// grid2D builds the hypergraph of a w x h 2D mesh (one 2-pin net per grid
// edge) — a structure where good partitions are obvious (stripes).
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
		b.SetWeight(v, int64(1+rng.Intn(4)))
		b.SetSize(v, int64(1+rng.Intn(4)))
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

func TestPartitionBisection(t *testing.T) {
	h := grid2D(16, 16)
	p, err := Partition(h, Options{K: 2, Imbalance: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	w := partition.Weights(h, p)
	if !partition.IsBalanced(w, 0.05) {
		t.Fatalf("imbalanced: %v", w)
	}
	cut := partition.CutSize(h, p)
	// A 16x16 grid has a 16-edge optimal bisection; multilevel should land
	// within 2x of optimal.
	if cut > 32 {
		t.Fatalf("cut = %d, want <= 32", cut)
	}
}

func TestPartitionKway(t *testing.T) {
	h := grid2D(20, 20)
	for _, k := range []int{3, 4, 8} {
		p, err := Partition(h, Options{K: k, Imbalance: 0.05, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		w := partition.Weights(h, p)
		if !partition.IsBalanced(w, 0.10) { // small slack over the 0.05 request
			t.Fatalf("k=%d imbalanced: %v (imb=%.3f)", k, w, partition.Imbalance(w))
		}
		cut := partition.CutSize(h, p)
		// each extra part boundary costs ~20; sanity bound
		if cut > int64(60*k) {
			t.Fatalf("k=%d cut = %d unreasonably high", k, cut)
		}
		// all parts non-trivially populated
		for q, ww := range w {
			if ww == 0 {
				t.Fatalf("k=%d part %d empty", k, q)
			}
		}
	}
}

func TestPartitionK1(t *testing.T) {
	h := grid2D(4, 4)
	p, err := Partition(h, Options{K: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v := range p.Parts {
		if p.Parts[v] != 0 {
			t.Fatal("K=1 must assign everything to part 0")
		}
	}
}

func TestFixedVerticesRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := randomHG(rng, 120, 200, 5)
	k := 4
	fixed := make([]int32, h.NumVertices())
	for v := range fixed {
		fixed[v] = hypergraph.Free
	}
	// fix 20 scattered vertices
	fixedSet := map[int]int{}
	for i := 0; i < 20; i++ {
		v := rng.Intn(h.NumVertices())
		p := rng.Intn(k)
		fixed[v] = int32(p)
		fixedSet[v] = p
	}
	hf := h.WithFixed(fixed)
	p, err := Partition(hf, Options{K: k, Imbalance: 0.10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range fixedSet {
		if p.Of(v) != want {
			t.Fatalf("fixed vertex %d moved: fixed to %d, assigned %d", v, want, p.Of(v))
		}
	}
}

func TestFixedOutOfRangeRejected(t *testing.T) {
	b := hypergraph.NewBuilder(3)
	b.Fix(0, 7)
	h := b.Build()
	if _, err := Partition(h, Options{K: 2, Seed: 1}); err == nil {
		t.Fatal("expected error for fixed part out of range")
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	h := randomHG(rng, 150, 250, 6)
	p1, _ := Partition(h, Options{K: 4, Seed: 42})
	p2, _ := Partition(h, Options{K: 4, Seed: 42})
	for v := range p1.Parts {
		if p1.Parts[v] != p2.Parts[v] {
			t.Fatal("same seed produced different partitions")
		}
	}
}

// TestIPMMatchLegality checks that the matching is symmetric, honors the
// fixed-vertex filter, and is maximal: no two singletons share a scored net
// (2..maxNetSize pins) when their fixed labels are compatible.
func TestIPMMatchLegality(t *testing.T) {
	const maxNetSize = 5
	for _, tc := range []struct {
		name   string
		nFixed int // vertices 0..nFixed-1 are fixed round-robin over 3 parts
	}{
		{"some fixed", 30},
		{"all fixed", 80},
	} {
		rng := rand.New(rand.NewSource(6))
		h := randomHG(rng, 80, 120, 6)
		fixed := make([]int32, 80)
		for v := range fixed {
			fixed[v] = hypergraph.Free
			if v < tc.nFixed {
				fixed[v] = int32(v % 3)
			}
		}
		hf := h.WithFixed(fixed)
		compatible := func(u, v int) bool {
			fu, fv := hf.Fixed(u), hf.Fixed(v)
			return fu == hypergraph.Free || fv == hypergraph.Free || fu == fv
		}
		match := ipmMatch(hf, rng, maxNetSize, new(workspace))
		for v := 0; v < 80; v++ {
			u := int(match[v])
			if u < 0 || u >= 80 {
				t.Fatalf("%s: match[%d] = %d out of range", tc.name, v, u)
			}
			if int(match[u]) != v {
				t.Fatalf("%s: match not symmetric: match[%d]=%d match[%d]=%d", tc.name, v, u, u, match[u])
			}
			if u != v && !compatible(u, v) {
				t.Fatalf("%s: matched vertices %d,%d fixed to different parts %d,%d", tc.name, v, u, hf.Fixed(v), hf.Fixed(u))
			}
		}
		for n := 0; n < hf.NumNets(); n++ {
			pins := hf.Pins(n)
			if len(pins) < 2 || len(pins) > maxNetSize {
				continue
			}
			for i, a := range pins {
				for _, b := range pins[i+1:] {
					u, v := int(a), int(b)
					if match[u] == a && match[v] == b && compatible(u, v) {
						t.Fatalf("%s: not maximal: singletons %d and %d share net %d", tc.name, u, v, n)
					}
				}
			}
		}
	}
}

func TestContractConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	h := randomHG(rng, 100, 160, 6)
	match := ipmMatch(h, rng, 500, new(workspace))
	coarse, cmap := Contract(h, match)
	if err := coarse.Validate(); err != nil {
		t.Fatal(err)
	}
	if coarse.TotalWeight() != h.TotalWeight() {
		t.Fatalf("weight not conserved: %d -> %d", h.TotalWeight(), coarse.TotalWeight())
	}
	if coarse.TotalSize() != h.TotalSize() {
		t.Fatalf("size not conserved: %d -> %d", h.TotalSize(), coarse.TotalSize())
	}
	// Single-pin coarse nets are uncuttable, so contraction drops them. No
	// partition shows whether it did: they are never cut and add no gain.
	for n := 0; n < coarse.NumNets(); n++ {
		if len(coarse.Pins(n)) < 2 {
			t.Fatalf("coarse net %d has %d pins, want >= 2", n, len(coarse.Pins(n)))
		}
	}
	// cmap is a valid surjection
	seen := make([]bool, coarse.NumVertices())
	for _, c := range cmap {
		if c < 0 || int(c) >= coarse.NumVertices() {
			t.Fatalf("cmap entry %d out of range", c)
		}
		seen[c] = true
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("coarse vertex %d has no fine vertex", c)
		}
	}
}

// The key multilevel invariant: the cut of a coarse partition equals the
// cut of its projection to the fine hypergraph. (Single-pin coarse nets
// were dropped, but they are uncut by construction — all their fine pins
// map to one coarse vertex... they can still be cut at fine level? No:
// a net whose pins all collapse into one coarse vertex has all fine pins
// in the same part after projection, so it is uncut. Identical-net merging
// sums costs, preserving totals.)
func TestProjectedCutInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		h := randomHG(rng, 60, 90, 5)
		match := ipmMatch(h, rng, 500, new(workspace))
		coarse, cmap := Contract(h, match)
		k := 2 + rng.Intn(3)
		cp := make([]int32, coarse.NumVertices())
		for v := range cp {
			cp[v] = int32(rng.Intn(k))
		}
		fp := project(cmap, cp)
		cutCoarse := partition.CutSize(coarse, partition.Partition{Parts: cp, K: k})
		cutFine := partition.CutSize(h, partition.Partition{Parts: fp, K: k})
		if cutCoarse != cutFine {
			t.Fatalf("trial %d: coarse cut %d != projected fine cut %d", trial, cutCoarse, cutFine)
		}
	}
}

func TestFM2NeverWorsensCut(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 10; trial++ {
		h := randomHG(rng, 80, 140, 5)
		parts := make([]int32, 80)
		for v := range parts {
			parts[v] = int32(rng.Intn(2))
		}
		fixed := make([]int32, 80)
		for v := range fixed {
			fixed[v] = hypergraph.Free
		}
		before := partition.CutSize(h, partition.Partition{Parts: append([]int32(nil), parts...), K: 2})
		total := h.TotalWeight()
		cap := int64(float64(total) * 0.55)
		ws := new(workspace)
		fm2(h, parts, fixed, cap, cap, 4, 500, ws.weightOrder(h), ws)
		after := partition.CutSize(h, partition.Partition{Parts: parts, K: 2})
		if after > before {
			t.Fatalf("trial %d: FM worsened cut %d -> %d", trial, before, after)
		}
	}
}

func TestFM2RespectsFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	h := randomHG(rng, 60, 100, 4)
	parts := make([]int32, 60)
	fixed := make([]int32, 60)
	for v := range parts {
		parts[v] = int32(rng.Intn(2))
		fixed[v] = hypergraph.Free
	}
	for v := 0; v < 10; v++ {
		fixed[v] = parts[v]
	}
	want := append([]int32(nil), parts[:10]...)
	total := h.TotalWeight()
	cap := int64(float64(total) * 0.6)
	ws := new(workspace)
	fm2(h, parts, fixed, cap, cap, 4, 500, ws.weightOrder(h), ws)
	for v := 0; v < 10; v++ {
		if parts[v] != want[v] {
			t.Fatalf("FM moved fixed vertex %d", v)
		}
	}
}

func TestRefineKwayNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 8; trial++ {
		h := randomHG(rng, 70, 110, 5)
		k := 3 + rng.Intn(3)
		parts := make([]int32, 70)
		for v := range parts {
			parts[v] = int32(rng.Intn(k))
		}
		before := partition.CutSize(h, partition.Partition{Parts: append([]int32(nil), parts...), K: k})
		caps := partition.Caps(h.TotalWeight(), k, 0.3)
		refineKway(h, k, parts, caps, 4, new(workspace))
		after := partition.CutSize(h, partition.Partition{Parts: parts, K: k})
		if after > before {
			t.Fatalf("trial %d: k-way refinement worsened cut %d -> %d", trial, before, after)
		}
	}

	// The over-cap escape: part 0 is over its cap and every move out of it
	// gains 0, so only the escape can drain it. m triples {x, y, z} form
	// one net each, with x and y on part 0 and z on part 1..k-1.
	for _, tc := range []struct {
		name string
		k, m int
		eps  float64
		fixX bool // fix every x to part 0, so only the y's can leave
	}{
		{"k2", 2, 10, 0.3, false},
		{"k3", 3, 12, 0.3, false},
		{"k2 fixed x", 2, 10, 0.1, true},
	} {
		b := hypergraph.NewBuilder(3 * tc.m)
		parts := make([]int32, 3*tc.m)
		for i := 0; i < tc.m; i++ {
			x, y, z := 3*i, 3*i+1, 3*i+2
			b.AddNet(1, x, y, z)
			parts[z] = int32(1 + i%(tc.k-1))
			if tc.fixX {
				b.Fix(x, 0)
			}
		}
		h := b.Build()
		caps := partition.Caps(h.TotalWeight(), tc.k, tc.eps)
		before := partition.CutSize(h, partition.Partition{Parts: parts, K: tc.k})

		s := NewKwayState(h, tc.k, append([]int32(nil), parts...))
		if s.PartWeight(0) <= caps[0] {
			t.Fatalf("%s: part 0 weight %d is not over cap %d", tc.name, s.PartWeight(0), caps[0])
		}
		for v := range parts {
			if to, gain := s.BestMove(v, caps); parts[v] == 0 && h.Fixed(v) == hypergraph.Free && (to < 0 || gain != 0) {
				t.Fatalf("%s: vertex %d best move (%d, %d), want a zero-gain move", tc.name, v, to, gain)
			}
		}

		check := func(via string, got []int32) {
			w := partition.Weights(h, partition.Partition{Parts: got, K: tc.k})
			if w[0] > caps[0] {
				t.Errorf("%s via %s: part 0 weight %d still over cap %d", tc.name, via, w[0], caps[0])
			}
			if after := partition.CutSize(h, partition.Partition{Parts: got, K: tc.k}); after > before {
				t.Errorf("%s via %s: cut rose %d -> %d", tc.name, via, before, after)
			}
			for v := range got {
				if f := h.Fixed(v); f != hypergraph.Free && got[v] != f {
					t.Errorf("%s via %s: fixed vertex %d moved to %d", tc.name, via, v, got[v])
				}
			}
		}
		RefineKwayPass(s, caps)
		check("RefineKwayPass", s.parts)
		sweep := append([]int32(nil), parts...)
		refineKway(h, tc.k, sweep, caps, 1, new(workspace))
		check("refineKway", sweep)
	}
}

func TestKwayStateIncrementalConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	h := randomHG(rng, 50, 80, 5)
	k := 4
	parts := make([]int32, 50)
	for v := range parts {
		parts[v] = int32(rng.Intn(k))
	}
	s := NewKwayState(h, k, parts)
	for i := 0; i < 200; i++ {
		v := rng.Intn(50)
		to := int32(rng.Intn(k))
		g := s.MoveGain(v, to)
		before := s.Cut()
		s.Move(v, to)
		after := s.Cut()
		if before-after != g {
			t.Fatalf("move %d: gain %d but cut delta %d", i, g, before-after)
		}
		// cross-check against the reference metric
		ref := partition.CutSize(h, partition.Partition{Parts: parts, K: k})
		if after != ref {
			t.Fatalf("incremental cut %d != reference %d", after, ref)
		}
	}
}

func TestGHGReachesTarget(t *testing.T) {
	h := grid2D(10, 10)
	rng := rand.New(rand.NewSource(22))
	fixed := make([]int32, 100)
	for v := range fixed {
		fixed[v] = hypergraph.Free
	}
	ws := new(workspace)
	parts := ghg2Fresh(h, rng, fixed, 50, 55, 55, 500, ws)
	var w0 int64
	for v, p := range parts {
		if p == 0 {
			w0 += h.Weight(v)
		}
	}
	if w0 < 45 || w0 > 55 {
		t.Fatalf("GHG side-0 weight %d, want ~50", w0)
	}
}

func TestGHGFixedSeedsAndExclusions(t *testing.T) {
	h := grid2D(8, 8)
	rng := rand.New(rand.NewSource(24))
	fixed := make([]int32, 64)
	for v := range fixed {
		fixed[v] = hypergraph.Free
	}
	fixed[0] = 0  // must end on side 0
	fixed[63] = 1 // must never be absorbed
	ws := new(workspace)
	parts := ghg2Fresh(h, rng, fixed, 32, 36, 36, 500, ws)
	if parts[0] != 0 {
		t.Fatal("side-0 fixed vertex not on side 0")
	}
	if parts[63] != 1 {
		t.Fatal("side-1 fixed vertex absorbed into side 0")
	}
}

func TestBisectionEps(t *testing.T) {
	if e := bisectionEps(0.05, 2); e != 0.05 {
		t.Fatalf("k=2 eps = %v", e)
	}
	if e := bisectionEps(0.08, 16); e < 0.01 || e > 0.02+1e-9 {
		t.Fatalf("k=16 eps = %v, want 0.02", e)
	}
	if e := bisectionEps(0.001, 64); e != 0.01 {
		t.Fatalf("tiny eps should clamp to 0.01, got %v", e)
	}
}

// Partitioning a hypergraph derived from a graph should behave sensibly too
// (exercises the 2-pin-net fast paths).
func TestPartitionFromGraph(t *testing.T) {
	gb := graph.NewBuilder(64)
	for i := 0; i < 64; i++ {
		if i+1 < 64 {
			gb.AddEdge(i, i+1, 1)
		}
		if i+8 < 64 {
			gb.AddEdge(i, i+8, 1)
		}
	}
	h := graph.ToHypergraph(gb.Build())
	p, err := Partition(h, Options{K: 2, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	if cut := partition.CutSize(h, p); cut > 16 {
		t.Fatalf("8x8 grid bisection cut = %d, want <= 16", cut)
	}
}

func TestEmptyHypergraph(t *testing.T) {
	h := hypergraph.NewBuilder(0).Build()
	p, err := Partition(h, Options{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Parts) != 0 {
		t.Fatal("expected empty partition")
	}
}

func TestSingleVertex(t *testing.T) {
	h := hypergraph.NewBuilder(1).Build()
	p, err := Partition(h, Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}
