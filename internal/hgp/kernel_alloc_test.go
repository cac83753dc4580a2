//go:build !race

package hgp

import (
	"math/rand"
	"slices"
	"testing"

	"hyperbal/internal/datasets"
	"hyperbal/internal/graph"
)

// TestKernelAllocGuards pins the steady-state allocs/op of the kernel hot
// paths, so the arena discipline of the workspace survives refactors.
// Limits carry ~50% headroom over measured values; the contraction
// kernel's budget covers the cmap and coarse hypergraph it returns (10
// allocations measured). Excluded under -race: the detector inserts
// allocations of its own.
func TestKernelAllocGuards(t *testing.T) {
	g, err := datasets.Generate("xyce680s", kernelBenchScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := graph.ToHypergraph(g)
	ws := newWorkspace()

	rng := rand.New(rand.NewSource(1))
	match := ipmMatch(h, rng, 500, true, ws)
	matchCopy := append([]int32(nil), match...)

	if n := testing.AllocsPerRun(10, func() {
		r := rand.New(rand.NewSource(1))
		ipmMatch(h, r, 500, true, ws)
	}); n > 16 {
		t.Errorf("ipmMatch: %.0f allocs/op, want <= 16", n)
	}

	if n := testing.AllocsPerRun(10, func() {
		copy(match, matchCopy)
		contractWS(h, match, ws)
	}); n > 15 {
		t.Errorf("contractWS: %.0f allocs/op, want <= 15", n)
	}

	const k = 8
	rng = rand.New(rand.NewSource(3))
	base := randomBalanced(h, k, rng)
	caps := capsFor(h, k, 0.10)
	parts := make([]int32, len(base))
	if n := testing.AllocsPerRun(10, func() {
		copy(parts, base)
		refineKway(h, k, parts, caps, 2, ws)
	}); n > 8 {
		t.Errorf("refineKway round: %.0f allocs/op, want <= 8", n)
	}

	// The coarse solve's path on the coarsest level of the first
	// bisection, piece by piece as coarseStarts runs it: the level's weight
	// order, the shared start, one ghg2 start from it, and fm2 from the
	// state ghg2 hands over; then fm2 as the uncoarsening levels enter it,
	// initialising. These limits are exact: ghg2 allocates only the
	// partition it returns, the rest nothing once the workspace is warm.
	coarsest, crng := firstBisectionCoarsest(t, "xyce680s", kernelBenchScale, 1)
	cfixed := fixedLabels(coarsest, nil)
	t0, c0, c1 := bisectCaps(coarsest, 0.5, 0.05)
	ord := ws.weightOrder(coarsest)
	if n := testing.AllocsPerRun(10, func() {
		ws.weightOrder(coarsest)
	}); n > 0 {
		t.Errorf("weightOrder: %.0f allocs/op, want 0", n)
	}
	st := ws.coarseStart(coarsest, cfixed, c0, c1, 500)
	if n := testing.AllocsPerRun(10, func() {
		ws.coarseStart(coarsest, cfixed, c0, c1, 500)
	}); n > 0 {
		t.Errorf("coarseStart: %.0f allocs/op, want 0", n)
	}
	seed := crng.Int63()
	if n := testing.AllocsPerRun(10, func() {
		ghg2(st, ws.startRNG(seed), cfixed, t0, ord, ws)
	}); n > 1 {
		t.Errorf("ghg2: %.0f allocs/op, want <= 1", n)
	}
	// Each fm2 run restarts from a copy of the handed-over state.
	s, _ := ghg2(st, ws.startRNG(seed), cfixed, t0, ord, ws)
	handed := s
	start := slices.Clone(s.parts)
	pins0 := slices.Clone(s.pins0)
	gains := slices.Clone(ws.gains)
	if n := testing.AllocsPerRun(10, func() {
		s = handed
		copy(s.parts, start)
		copy(s.pins0, pins0)
		copy(ws.gains, gains)
		fm2From(&s, cfixed, 4, ord, ws)
	}); n > 0 {
		t.Errorf("fm2From: %.0f allocs/op, want 0", n)
	}
	cparts := make([]int32, len(start))
	if n := testing.AllocsPerRun(10, func() {
		copy(cparts, start)
		fm2(coarsest, cparts, cfixed, c0, c1, 4, 500, ord, ws)
	}); n > 0 {
		t.Errorf("fm2: %.0f allocs/op, want 0", n)
	}

	// The whole coarse solve at Parallelism 1, free and with fixed sides
	// that make every start grow without drawing: the result slice, the
	// start closure and each grown partition, one per start that ran ghg2
	// (all 8 free; only the first with fixed sides). The registry of grown
	// partitions allocates nothing once the workspace is warm.
	opt := Options{}.withDefaults()
	px := newParctx(1)
	for _, c := range []struct {
		name  string
		fixed []int32
		want  float64
	}{
		{"free", cfixed, 2 + float64(opt.InitialStarts)},
		{"fixed", coarseOracleSides(coarsest, 2), 2 + 1},
	} {
		coarseStarts(coarsest, c.fixed, t0, c0, c1, seed, opt, px, ws)
		if n := testing.AllocsPerRun(10, func() {
			coarseStarts(coarsest, c.fixed, t0, c0, c1, seed, opt, px, ws)
		}); n > c.want {
			t.Errorf("coarseStarts %s: %.0f allocs/op, want <= %.0f", c.name, n, c.want)
		}
	}
}
