package hgp

import (
	"fmt"
	"math/rand"
	"time"

	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

// WarmSpec seeds PartitionWarm from a previous epoch's solution.
type WarmSpec struct {
	// Parts is the inherited assignment over h's vertex set (entries in
	// [0,K)). It is not mutated.
	Parts []int32
	// Dirty marks the vertices touched by the epoch transition (from
	// hypergraph.Delta.DirtyVertices). Nil means unknown — the whole
	// hypergraph is treated as dirty and the full seeded V-cycle runs.
	Dirty []bool
}

// warmVCycleFraction is the dirty fraction above which localized
// refinement stops paying for itself and the warm path escalates to a
// partition-seeded V-cycle. Past roughly a quarter of the vertices, the
// 1-hop halo covers most of the hypergraph anyway.
const warmVCycleFraction = 0.25

// warmColdFraction is the dirty fraction above which the inherited
// solution carries too little signal to be worth seeding from at all: the
// V-cycle's partition-restricted coarsening would mostly preserve a
// stale structure, so the warm path runs the cold partitioner instead —
// warm-starting is an optimization for small transitions, not a license
// to degrade quality on large ones.
const warmColdFraction = 0.4

// WarmStats reports what the warm path actually did.
type WarmStats struct {
	// Mode is "localized" (dirty-region refinement only), "vcycle"
	// (partition-seeded V-cycle), "cold" (drift too large or warm result
	// infeasible — the cold partitioner ran) or "trivial" (K < 2 or empty
	// hypergraph).
	Mode string
	// DirtyFraction is the fraction of vertices marked dirty (1 when the
	// spec carried no dirty set).
	DirtyFraction float64
	// Cut is the connectivity-1 cut of the returned partition.
	Cut int64
}

// PartitionWarm computes a k-way partition of h seeded from an inherited
// solution instead of from scratch: it skips the multi-start coarse solve
// and recursive bisection entirely, repairs balance, and re-refines only
// the dirty region (plus a 1-hop halo) when the epoch transition touched
// a small part of the hypergraph — escalating to a full partition-seeded
// V-cycle when it did not. Fixed vertices are honored throughout.
//
// The warm tiers (balance repair, the restricted dirty∪halo refinement,
// the seeded V-cycle) run serially, so Options.Parallelism only reaches
// the cold fallback, whose result is bit-identical for every value. Like
// Partition it satisfies Eq. 1 on all but pathological inputs; callers can
// check with partition.IsBalanced.
func PartitionWarm(h *hypergraph.Hypergraph, opt Options, spec WarmSpec) (partition.Partition, WarmStats, error) {
	opt = opt.WithDefaults()
	if err := checkFixed(h, opt.K); err != nil {
		return partition.Partition{}, WarmStats{}, err
	}
	n := h.NumVertices()
	if len(spec.Parts) != n {
		return partition.Partition{}, WarmStats{}, fmt.Errorf("hgp: warm spec covers %d vertices, hypergraph has %d", len(spec.Parts), n)
	}
	if spec.Dirty != nil && len(spec.Dirty) != n {
		return partition.Partition{}, WarmStats{}, fmt.Errorf("hgp: warm dirty set covers %d vertices, hypergraph has %d", len(spec.Dirty), n)
	}
	p := partition.Partition{Parts: make([]int32, n), K: opt.K}
	if opt.K == 1 || n == 0 {
		return p, WarmStats{Mode: "trivial"}, nil
	}

	start := time.Now()
	// Seed from the inherited solution; fixed labels win over inheritance
	// (a delta may have introduced new fixed vertices).
	for v := 0; v < n; v++ {
		pv := spec.Parts[v]
		if pv < 0 || int(pv) >= opt.K {
			return partition.Partition{}, WarmStats{}, fmt.Errorf("hgp: inherited part %d of vertex %d out of range [0,%d)", pv, v, opt.K)
		}
		if f := h.Fixed(v); f != hypergraph.Free {
			pv = f
		}
		p.Parts[v] = pv
	}

	dirtyFrac := 1.0
	if spec.Dirty != nil {
		d := 0
		for _, b := range spec.Dirty {
			if b {
				d++
			}
		}
		dirtyFrac = float64(d) / float64(n)
	}

	ws := wsPool.Get().(*workspace)
	defer wsPool.Put(ws)
	caps := partition.Caps(h.TotalWeight(), opt.K, opt.Imbalance)

	var stats WarmStats
	stats.DirtyFraction = dirtyFrac
	switch {
	case spec.Dirty != nil && dirtyFrac <= warmVCycleFraction:
		stats.Mode = "localized"
		// The inherited solution can be arbitrarily imbalanced on the new
		// weights (adaptive refinement scales vertices in place). Repair
		// at the finest level with least-cut-damage moves; the moved
		// vertices join the refinement region below.
		moved := repairBalance(h, opt.K, p.Parts, caps, ws)
		region := expandDirty(h, spec.Dirty)
		for _, v := range moved {
			region[v] = true
		}
		// Restrict refinement to the halo: clean vertices are temporarily
		// fixed to their inherited parts, so only the region moves.
		restricted := make([]int32, n)
		for v := 0; v < n; v++ {
			if region[v] {
				restricted[v] = h.Fixed(v) // original label (usually Free)
			} else {
				restricted[v] = p.Parts[v]
			}
		}
		hr := h.WithFixed(restricted)
		refineKway(hr, opt.K, p.Parts, caps, opt.RefinePasses, ws)
		// Global polish against the original fixed labels: cheap O(V)
		// sweeps that clean up region-boundary myopia and finish any
		// balance repair the restricted pass could not complete.
		stats.Cut = warmPolish(h, opt, p.Parts, caps, ws)
		if !feasible(h, p.Parts, caps) {
			// The dirty region did not hold enough movable weight;
			// escalate to the seeded V-cycle.
			stats.Mode = "vcycle"
			rng := rand.New(rand.NewSource(opt.Seed ^ 0x77a7))
			vCycle(h, p.Parts, opt.K, rng, opt)
			stats.Cut = warmPolish(h, opt, p.Parts, caps, ws)
		}
	case spec.Dirty != nil && dirtyFrac <= warmColdFraction:
		stats.Mode = "vcycle"
		repairBalance(h, opt.K, p.Parts, caps, ws)
		rng := rand.New(rand.NewSource(opt.Seed ^ 0x77a7))
		vCycle(h, p.Parts, opt.K, rng, opt)
		stats.Cut = warmPolish(h, opt, p.Parts, caps, ws)
	default:
		// Unknown or large drift: the seed is stale — run cold.
		stats.Mode = "cold"
		cold, err := Partition(h, opt)
		if err != nil {
			return partition.Partition{}, WarmStats{}, err
		}
		copy(p.Parts, cold.Parts)
		stats.Cut = partition.CutSize(h, p)
	}

	if stats.Mode != "cold" && !feasible(h, p.Parts, caps) {
		// Safety net: warm-starting is an optimization, never a license to
		// ship an infeasible distribution. Fall back to the cold
		// partitioner, which is what the caller would have run anyway.
		cold, err := Partition(h, opt)
		if err != nil {
			return partition.Partition{}, WarmStats{}, err
		}
		copy(p.Parts, cold.Parts)
		stats.Mode = "cold"
		stats.Cut = partition.CutSize(h, p)
	}

	obsWarmPartitions.With(stats.Mode).Inc()
	obsWarmNs.ObserveSince(start)
	obsFinalCut.Set(stats.Cut)
	return p, stats, nil
}

// warmPolish runs unrestricted k-way refinement sweeps on the full
// hypergraph (original fixed labels only) and returns the cut.
func warmPolish(h *hypergraph.Hypergraph, opt Options, parts []int32, caps []int64, ws *workspace) int64 {
	hv := h
	if !h.HasFixed() {
		hv = h.WithoutFixed()
	}
	return refineKway(hv, opt.K, parts, caps, opt.RefinePasses, ws)
}

// expandDirty grows the dirty set by one net hop: every vertex sharing a
// net with a dirty vertex joins the region, so refinement can move the
// immediate neighborhood of a change, not just the changed vertices.
func expandDirty(h *hypergraph.Hypergraph, dirty []bool) []bool {
	n := h.NumVertices()
	region := make([]bool, n)
	copy(region, dirty)
	touched := make([]bool, h.NumNets())
	for v := 0; v < n; v++ {
		if !dirty[v] {
			continue
		}
		for _, nn := range h.Nets(v) {
			touched[nn] = true
		}
	}
	for nn := 0; nn < h.NumNets(); nn++ {
		if !touched[nn] {
			continue
		}
		for _, pin := range h.Pins(nn) {
			region[pin] = true
		}
	}
	return region
}

// repairBalance drains over-cap parts at the finest level, one
// least-cut-damage move at a time: while some part exceeds its cap, the
// free vertex of the most overloaded part whose best relocation loses
// the least connectivity-1 cut is moved to the lightest part that can
// take it. Repairing before the V-cycle matters because its
// partition-restricted coarsening would freeze an overload into coarse
// mega-vertices no refinement pass can move. Returns the moved vertices
// (for the caller to include in its refinement region).
//
// Each move scans every (vertex, destination) candidate in index order and
// keeps the best gain, then the lightest destination; on a full tie the
// lowest vertex id wins.
func repairBalance(h *hypergraph.Hypergraph, k int, parts []int32, caps []int64, ws *workspace) []int32 {
	if feasible(h, parts, caps) {
		// The loop below would stop before its first move; skip the
		// O(pins) state build.
		return nil
	}
	s := ws.kwayState(h, k, parts)
	defer s.release()
	n := h.NumVertices()
	var moved []int32
	for len(moved) <= n {
		src := int32(-1)
		var worst int64
		for p := 0; p < k; p++ {
			if over := s.w[p] - caps[p]; over > worst {
				worst, src = over, int32(p)
			}
		}
		if src < 0 {
			break
		}
		bestV, bestTo := int32(-1), int32(-1)
		var bestGain int64
		for v := 0; v < n; v++ {
			if s.parts[v] != src || h.Fixed(v) != hypergraph.Free {
				continue
			}
			wt := h.Weight(v)
			for p := 0; p < k; p++ {
				to := int32(p)
				if to == src || s.w[p]+wt > caps[p] {
					continue
				}
				g := s.MoveGain(v, to)
				if bestV < 0 || g > bestGain || (g == bestGain && s.w[to] < s.w[bestTo]) {
					bestV, bestTo, bestGain = int32(v), to, g
				}
			}
		}
		if bestV < 0 {
			// Nothing movable fits anywhere; the final feasibility check
			// decides whether to fall back cold.
			break
		}
		s.Move(int(bestV), bestTo)
		moved = append(moved, bestV)
	}
	return moved
}

// feasible reports whether every part respects its weight cap.
func feasible(h *hypergraph.Hypergraph, parts []int32, caps []int64) bool {
	w := make([]int64, len(caps))
	for v, p := range parts {
		w[p] += h.Weight(v)
	}
	for p := range w {
		if w[p] > caps[p] {
			return false
		}
	}
	return true
}
