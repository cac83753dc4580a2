//go:build !race

package hgp

import (
	"math/rand"
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

	// The coarse solve's kernels, each with its level's weight order, on
	// the coarsest level of the first bisection. These limits are exact:
	// ghg2 allocates only the partition it returns, fm2 nothing.
	coarsest, crng := firstBisectionCoarsest(t, "xyce680s", kernelBenchScale, 1)
	cfixed := fixedLabels(coarsest)
	t0, c0, c1 := bisectCaps(coarsest, 0.5, 0.05)
	srng := rand.New(rand.NewSource(crng.Int63()))
	start := ghg2(coarsest, srng, cfixed, t0, c0, c1, 500, ws.weightOrder(coarsest), ws)
	if n := testing.AllocsPerRun(10, func() {
		ghg2(coarsest, srng, cfixed, t0, c0, c1, 500, ws.weightOrder(coarsest), ws)
	}); n > 1 {
		t.Errorf("ghg2: %.0f allocs/op, want <= 1", n)
	}
	cparts := make([]int32, len(start))
	if n := testing.AllocsPerRun(10, func() {
		copy(cparts, start)
		fm2(coarsest, cparts, cfixed, c0, c1, 4, 500, ws.weightOrder(coarsest), ws)
	}); n > 0 {
		t.Errorf("fm2: %.0f allocs/op, want 0", n)
	}
}
