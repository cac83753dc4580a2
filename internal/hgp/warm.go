package hgp

import (
	"fmt"
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
	// hypergraph.Delta.DirtyVertices). Nil means unknown: the inherited
	// solution cannot be trusted anywhere and the cold partitioner runs.
	Dirty []bool
}

// warmLocalizedFraction is the largest dirty fraction the localized tier
// takes. Past roughly a quarter of the vertices the 1-hop halo covers most
// of the hypergraph anyway, and the inherited solution carries too little
// signal to be worth seeding from: the warm path runs the cold partitioner
// instead.
const warmLocalizedFraction = 0.25

// WarmStats reports what the warm path actually did.
type WarmStats struct {
	// Mode is "localized" (dirty-region refinement only), "cold" (drift
	// too large, no dirty set, or the localized result infeasible — the
	// cold partitioner ran) or "trivial" (K < 2 or empty hypergraph).
	Mode string
	// DirtyFraction is the fraction of vertices marked dirty (1 when the
	// spec carried no dirty set).
	DirtyFraction float64
	// Cut is the connectivity-1 cut of the returned partition.
	Cut int64
}

// PartitionWarm computes a k-way partition of h seeded from an inherited
// solution instead of from scratch: when the epoch transition touched a
// small part of the hypergraph it skips the multi-start coarse solve and
// recursive bisection entirely, repairs balance, and re-refines only the
// dirty region (plus a 1-hop halo). Larger drift, a nil dirty set, and a
// localized result that is still infeasible run the cold partitioner,
// whose result equals Partition(h, opt). Fixed vertices are honored
// throughout.
//
// The localized tier runs serially, so Options.Parallelism only reaches
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

	stats := WarmStats{Mode: "cold", DirtyFraction: dirtyFrac}
	if spec.Dirty != nil && dirtyFrac <= warmLocalizedFraction {
		stats.Mode = "localized"
		ws := wsPool.Get().(*workspace)
		caps := partition.Caps(h.TotalWeight(), opt.K, opt.Imbalance)
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
		wsPool.Put(ws)
		if !feasible(h, p.Parts, caps) {
			// The dirty region did not hold enough movable weight.
			// Warm-starting is an optimization, never a license to ship
			// an infeasible distribution.
			stats.Mode = "cold"
		}
	}

	if stats.Mode == "cold" {
		// Unknown or large drift, or an infeasible localized result: run
		// the cold partitioner, which is what the caller would have run
		// anyway.
		cold, err := Partition(h, opt)
		if err != nil {
			return partition.Partition{}, WarmStats{}, err
		}
		p = cold
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
// take it. It moves vertices through s and returns them in move order
// (for the caller to include in its refinement region).
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
