package hgp

import (
	"math/rand"

	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

// vCycle re-runs the multilevel pipeline using an existing partition as
// guidance (the iterated V-cycle of PaToH/hMETIS): coarsening is
// restricted to same-part vertex pairs, so the current partition projects
// losslessly onto every level; the coarsest solution is the projected
// partition itself, improved by refinement on the way back up. Each cycle
// can only improve the cut. Fixed vertices are honored throughout.
func vCycle(h *hypergraph.Hypergraph, parts []int32, k int, rng *rand.Rand, opt Options) {
	ws := wsPool.Get().(*workspace)
	defer wsPool.Put(ws)
	caps := partition.Caps(h.TotalWeight(), k, opt.Imbalance)

	// Partition-respecting matching: encode current parts as additional
	// fixed labels only for the match filter by temporarily fixing free
	// vertices to their current part. Original fixed labels agree with
	// parts (the caller guarantees fixed vertices sit on their parts), so
	// this is a pure restriction.
	restricted := make([]int32, h.NumVertices())
	copy(restricted, parts)
	hr := h.WithFixed(restricted)

	coarsenTo := opt.CoarsenTo
	if coarsenTo < 2*k {
		coarsenTo = 2 * k
	}
	levels := coarsen(hr, rng, coarsenTo, ws)

	// Project the current partition down the hierarchy. Because matching
	// never crosses parts, every coarse vertex has a well-defined part.
	partsAt := make([][]int32, len(levels))
	partsAt[0] = append([]int32(nil), parts...)
	for i := 0; i+1 < len(levels); i++ {
		cmap := levels[i].cmap
		coarseParts := make([]int32, levels[i+1].h.NumVertices())
		for v, c := range cmap {
			coarseParts[c] = partsAt[i][v]
		}
		partsAt[i+1] = coarseParts
	}

	// Refine upward against the ORIGINAL fixed labels (free vertices may
	// move; genuinely fixed ones may not). levels[i].h carries the
	// restricted labels, so refine on a relabeled view.
	for i := len(levels) - 1; i >= 0; i-- {
		var cur []int32
		if i == len(levels)-1 {
			cur = partsAt[i]
		} else {
			cur = project(levels[i].cmap, partsAt[i+1])
		}
		partsAt[i] = cur
		view := levelViewWithOriginalFixed(h, levels[i].h, levels, i)
		refineKway(view, k, cur, caps, opt.RefinePasses, ws)
	}
	copy(parts, partsAt[0])
}

// levelViewWithOriginalFixed rebuilds the fixed labels of a coarse level
// from the original hypergraph's labels: a coarse vertex is fixed iff one
// of its constituents was genuinely fixed in h (not merely
// partition-restricted for matching).
func levelViewWithOriginalFixed(orig *hypergraph.Hypergraph, level *hypergraph.Hypergraph, levels []level, idx int) *hypergraph.Hypergraph {
	if idx == 0 {
		if orig.HasFixed() {
			return orig
		}
		return orig.WithoutFixed()
	}
	// Compose cmaps from level 0 down to idx.
	n := orig.NumVertices()
	comp := make([]int32, n)
	for v := range comp {
		comp[v] = int32(v)
	}
	for i := 0; i < idx; i++ {
		cmap := levels[i].cmap
		for v := range comp {
			comp[v] = cmap[comp[v]]
		}
	}
	fixed := make([]int32, level.NumVertices())
	for i := range fixed {
		fixed[i] = hypergraph.Free
	}
	hasFixed := false
	for v := 0; v < n; v++ {
		if f := orig.Fixed(v); f != hypergraph.Free {
			fixed[comp[v]] = f
			hasFixed = true
		}
	}
	if !hasFixed {
		return level.WithoutFixed()
	}
	return level.WithFixed(fixed)
}
