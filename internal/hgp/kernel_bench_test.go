package hgp

import (
	"math/rand"
	"testing"

	"hyperbal/internal/datasets"
	"hyperbal/internal/graph"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

// kernelBenchScale matches the repo-level benchScale so kernel numbers are
// comparable with the figure benchmarks in bench_test.go.
const kernelBenchScale = 1200

func benchHypergraph(b *testing.B) *hypergraph.Hypergraph {
	b.Helper()
	g, err := datasets.Generate("xyce680s", kernelBenchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	return graph.ToHypergraph(g)
}

// BenchmarkContract measures one coarsening contraction at benchScale:
// the dominant allocation site of the multilevel pipeline.
func BenchmarkContract(b *testing.B) {
	h := benchHypergraph(b)
	rng := rand.New(rand.NewSource(1))
	ws := new(workspace)
	match := ipmMatch(h, rng, 500, ws)
	matchCopy := append([]int32(nil), match...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(match, matchCopy)
		contractWS(h, match, ws)
	}
}

// BenchmarkIPMMatch measures one inner-product matching pass.
func BenchmarkIPMMatch(b *testing.B) {
	h := benchHypergraph(b)
	ws := new(workspace)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		ipmMatch(h, rng, 500, ws)
	}
}

// BenchmarkFM2Pass measures one 2-way FM pass-pair over a balanced random
// start (the per-level refinement kernel).
func BenchmarkFM2Pass(b *testing.B) {
	h := benchHypergraph(b)
	n := h.NumVertices()
	rng := rand.New(rand.NewSource(2))
	base := make([]int32, n)
	for _, v := range rng.Perm(n)[:n/2] {
		base[v] = 1
	}
	fixed := make([]int32, n)
	for v := range fixed {
		fixed[v] = hypergraph.Free
	}
	caps := partition.Caps(h.TotalWeight(), 2, 0.10)
	parts := make([]int32, n)
	ws := new(workspace)
	ord := ws.weightOrder(h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(parts, base)
		fm2(h, parts, fixed, caps[0], caps[1], 1, 500, ord, ws)
	}
}

// BenchmarkFM2Dense measures fm2 on a pin-bound level: an apoa1-10
// analogue (MD cutoff, n = 600, about 30 nets per vertex) from a seeded random
// bisection at ε = 0.05, up to 4 passes. Every move touches many pins
// here, so this is where gain upkeep shows.
func BenchmarkFM2Dense(b *testing.B) {
	g, err := datasets.Generate("apoa1-10", 600, 1)
	if err != nil {
		b.Fatal(err)
	}
	h := graph.ToHypergraph(g)
	n := h.NumVertices()
	rng := rand.New(rand.NewSource(2))
	base := make([]int32, n)
	for _, v := range rng.Perm(n)[:n/2] {
		base[v] = 1
	}
	fixed := make([]int32, n)
	for v := range fixed {
		fixed[v] = hypergraph.Free
	}
	_, c0, c1 := bisectCaps(h, 0.5, 0.05)
	parts := make([]int32, n)
	ws := new(workspace)
	ord := ws.weightOrder(h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(parts, base)
		fm2(h, parts, fixed, c0, c1, 4, 500, ord, ws)
	}
}

// BenchmarkCoarseSolve measures bisect's coarse solve on the coarsest
// level of xyce680s's first bisection at ε = 0.05: coarseStarts at
// Parallelism 1, which builds the level's weight order and shared start
// and runs every start's ghg2 and fm2. Coarse vertices are heavy and
// uneven, so balance blocks many of the best-gain moves — the case
// BenchmarkFM2Pass, on unit weights with loose caps, never reaches.
// "free" fixes no vertex, and its starts grow 3 distinct partitions of 8;
// "fixed" fixes sides as coarseOracleSides(·, 2) does, as repartitioning
// does, so growth starts at the side-0 fixed vertices, no start draws and
// one start's ghg2 and fm2 settle the solve.
func BenchmarkCoarseSolve(b *testing.B) {
	coarsest, rng := firstBisectionCoarsest(b, "xyce680s", kernelBenchScale, 1)
	t0, c0, c1 := bisectCaps(coarsest, 0.5, 0.05)
	opt := Options{}.WithDefaults()
	baseSeed := rng.Int63()
	px := newParctx(1)
	for _, c := range []struct {
		name  string
		fixed []int32
	}{
		{"free", fixedLabels(coarsest, nil)},
		{"fixed", coarseOracleSides(coarsest, 2)},
	} {
		b.Run(c.name, func(b *testing.B) {
			ws := new(workspace)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				coarseStarts(coarsest, c.fixed, t0, c0, c1, baseSeed, opt, px, ws)
			}
		})
	}
}

// BenchmarkWeightOrder measures building the leaf order of xyce680s at
// benchScale, whose unit weights take no radix pass, and of the coarsest
// level of its first bisection, whose contracted weights take one.
func BenchmarkWeightOrder(b *testing.B) {
	h := benchHypergraph(b)
	coarsest, _ := firstBisectionCoarsest(b, "xyce680s", kernelBenchScale, 1)
	ws := new(workspace)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.weightOrder(h)
		ws.weightOrder(coarsest)
	}
}

// firstBisectionCoarsest returns the coarsest level of the first bisection
// Partition runs on the named dataset analogue at default options, and the
// RNG stream positioned where bisect draws the coarse solve's base seed.
func firstBisectionCoarsest(tb testing.TB, ds string, n int, seed int64) (*hypergraph.Hypergraph, *rand.Rand) {
	tb.Helper()
	g, err := datasets.Generate(ds, n, seed)
	if err != nil {
		tb.Fatal(err)
	}
	h := graph.ToHypergraph(g)
	opt := Options{K: 2, Seed: seed}.WithDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	free := make([]int32, h.NumVertices())
	for v := range free {
		free[v] = hypergraph.Free
	}
	levels := coarsen(h.WithFixed(free), rng, opt.CoarsenTo, new(workspace))
	return levels[len(levels)-1].h, rng
}

// BenchmarkPartitionWarmLocalized measures one localized PartitionWarm
// call on a golden-style input: the xyce680s analogue at benchScale and
// the golden dataset seed 5, with every 13th vertex fixed (goldenFixed),
// its cold k = 8 partition, and every 10th vertex dirty and rotated to the
// next part. The rotation puts a part over its cap, so the balance repair
// moves vertices before the region and polish sweeps.
func BenchmarkPartitionWarmLocalized(b *testing.B) {
	const k = 8
	g, err := datasets.Generate("xyce680s", kernelBenchScale, 5)
	if err != nil {
		b.Fatal(err)
	}
	h := goldenFixed(graph.ToHypergraph(g), k)
	opt := Options{K: k, Seed: 11}
	cold, err := Partition(h, opt)
	if err != nil {
		b.Fatal(err)
	}
	inherited := cold.Parts
	dirty := make([]bool, len(inherited))
	for v := 0; v < len(inherited); v += 10 {
		dirty[v] = true
		inherited[v] = (inherited[v] + 1) % k
	}
	spec := WarmSpec{Parts: inherited, Dirty: dirty}
	// PartitionWarm's seed: fixed labels win over the inherited parts.
	seeded := append([]int32(nil), inherited...)
	for v := range seeded {
		if f := h.Fixed(v); f != hypergraph.Free {
			seeded[v] = f
		}
	}
	if feasible(h, seeded, partition.Caps(h.TotalWeight(), k, opt.WithDefaults().Imbalance)) {
		b.Fatal("the rotated partition is feasible: the repair would not run")
	}
	if _, stats, err := PartitionWarm(h, opt, spec); err != nil || stats.Mode != "localized" {
		b.Fatalf("warm call: mode %q, err %v; want localized", stats.Mode, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PartitionWarm(h, opt, spec)
	}
}
