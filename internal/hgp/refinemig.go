package hgp

import (
	"hyperbal/internal/hypergraph"
)

// RefineKwayWithMigration performs greedy k-way refinement under the
// combined repartitioning objective alpha*cut + migration: moving v off
// its old part costs Size(v), moving it home refunds Size(v). This is the
// "account for migration costs only in the refinement phase" strategy of
// Schloegel et al. that Section 1 of the paper argues is weaker than
// folding migration into the model itself (migration nets + fixed
// vertices) — implemented here to make that comparison measurable (the A2
// ablation). Fixed vertices never move. Returns the final cut.
func RefineKwayWithMigration(h *hypergraph.Hypergraph, k int, parts []int32, oldPart []int32, alpha int64, caps []int64, passes int) int64 {
	if alpha < 1 {
		alpha = 1
	}
	s := NewKwayState(h, k, parts)
	for pass := 0; pass < passes; pass++ {
		improved := false
		for v := 0; v < h.NumVertices(); v++ {
			if h.Fixed(v) != hypergraph.Free {
				continue
			}
			from := s.PartOf(v)
			cands := s.AdjacentParts(v)
			var bestTo int32 = -1
			var bestGain int64
			overFrom := s.PartWeight(from) > caps[from]
			var forcedTo int32 = -1
			var forcedGain int64
			for _, to := range cands {
				if s.PartWeight(to)+h.Weight(v) > caps[to] {
					continue
				}
				gain := alpha * s.MoveGain(v, to)
				if oldPart != nil {
					if from == oldPart[v] {
						gain -= h.Size(v)
					}
					if to == oldPart[v] {
						gain += h.Size(v)
					}
				}
				if gain > bestGain {
					bestGain = gain
					bestTo = to
				}
				if overFrom && (forcedTo == -1 || gain > forcedGain) {
					forcedGain = gain
					forcedTo = to
				}
			}
			to := bestTo
			if bestGain <= 0 {
				to = -1
			}
			if to == -1 && overFrom {
				to = forcedTo
			}
			if to >= 0 {
				s.Move(v, to)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return s.Cut()
}
