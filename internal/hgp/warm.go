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
		// One k-way state serves the repair, the region sweeps and the
		// polish. The inherited solution can be arbitrarily imbalanced on
		// the new weights (adaptive refinement scales vertices in place).
		// Repair at the finest level with least-cut-damage moves; the
		// moved vertices join the refinement region below.
		s := ws.kwayState(h, opt.K, p.Parts)
		region := warmRegion(h, spec.Dirty, repairBalance(s, caps))
		// Refine only the region; every other vertex keeps its part.
		for pass := 0; pass < RefinePasses; pass++ {
			if regionSweep(s, caps, region) == 0 {
				break
			}
		}
		// Global polish against the original fixed labels: cheap O(V)
		// sweeps that clean up region-boundary myopia and finish any
		// balance repair the region sweeps could not complete.
		for pass := 0; pass < RefinePasses; pass++ {
			if kwaySweep(s, caps) == 0 {
				break
			}
		}
		stats.Cut = s.Cut()
		s.release()
		if !feasible(h, p.Parts, caps) {
			// The dirty region did not hold enough movable weight;
			// escalate to the seeded V-cycle.
			stats.Mode = "vcycle"
			rng := rand.New(rand.NewSource(opt.Seed ^ 0x77a7))
			vCycle(h, p.Parts, opt.K, rng, opt)
			stats.Cut = refineKway(h, opt.K, p.Parts, caps, RefinePasses, ws)
		}
	case spec.Dirty != nil && dirtyFrac <= warmColdFraction:
		stats.Mode = "vcycle"
		// A feasible input needs no repair: skip the O(pins) state build.
		if !feasible(h, p.Parts, caps) {
			s := ws.kwayState(h, opt.K, p.Parts)
			repairBalance(s, caps)
			s.release()
		}
		rng := rand.New(rand.NewSource(opt.Seed ^ 0x77a7))
		vCycle(h, p.Parts, opt.K, rng, opt)
		stats.Cut = refineKway(h, opt.K, p.Parts, caps, RefinePasses, ws)
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
	return p, stats, nil
}

// warmRegion returns the ascending free vertices of the localized tier's
// refinement region: the dirty set grown by one net hop (so refinement can
// move the immediate neighborhood of a change, not just the changed
// vertices), plus the vertices the balance repair moved.
func warmRegion(h *hypergraph.Hypergraph, dirty []bool, moved []int32) []int32 {
	n := h.NumVertices()
	in := make([]bool, n)
	copy(in, dirty)
	for _, v := range moved {
		in[v] = true
	}
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
			in[pin] = true
		}
	}
	size := 0
	for v := range in {
		in[v] = in[v] && h.Fixed(v) == hypergraph.Free
		if in[v] {
			size++
		}
	}
	region := make([]int32, 0, size)
	for v := 0; v < n; v++ {
		if in[v] {
			region = append(region, int32(v))
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
// mega-vertices no refinement pass can move. It moves vertices through s
// and returns them in move order (for the caller to include in its
// refinement region).
//
// Each move scores every free vertex of the overloaded part, in index
// order, in one gains pass over its nets, then tries every destination
// 0..k-1 that fits. It keeps the best gain, then the lightest
// destination; on a full tie the lowest vertex id wins.
func repairBalance(s *KwayState, caps []int64) []int32 {
	h, k := s.h, s.k
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
			base, cands := s.gains(v)
			for p := 0; p < k; p++ {
				to := int32(p)
				if to == src || s.w[p]+wt > caps[p] {
					continue
				}
				g := base + s.acc[p]
				if bestV < 0 || g > bestGain || (g == bestGain && s.w[to] < s.w[bestTo]) {
					bestV, bestTo, bestGain = int32(v), to, g
				}
			}
			for _, q := range cands {
				s.acc[q] = 0
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
