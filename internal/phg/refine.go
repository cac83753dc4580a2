package phg

import (
	"hyperbal/internal/hgp"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/mpi"
)

// moveProposal is one rank's suggested relocation.
type moveProposal struct {
	V    int32
	To   int32
	Gain int64
}

// parallelRefine improves parts in place with rounds of propose-exchange-
// apply (§4.3's localized FM adapted to the SPMD setting). Each rank scans
// its vertex block for positive-gain balanced moves, proposals are
// allgathered, and every rank applies the surviving ones in the same
// order, keeping the replicated state identical. Fixed vertices never
// move.
func parallelRefine(c *mpi.Comm, h *hypergraph.Hypergraph, k int, parts []int32, caps []int64) {
	n := h.NumVertices()
	lo, hi := blockRange(n, c.Size(), c.Rank())
	state := hgp.NewKwayState(h, k, parts)

	for round := 0; round < refineRounds; round++ {
		// 1. Propose best moves for local block vertices.
		var proposals []moveProposal
		for v := lo; v < hi && len(proposals) < movesPerRound; v++ {
			if h.Fixed(v) != hypergraph.Free {
				continue
			}
			if to, gain := state.BestMove(v, caps); to >= 0 && gain > 0 {
				proposals = append(proposals, moveProposal{V: int32(v), To: to, Gain: gain})
			}
		}

		// 2. Exchange proposals (rank order — deterministic).
		all, _ := mpi.AllgatherSlice(c, proposals)
		if len(all) == 0 {
			break
		}

		// 3. Apply: recompute each gain against the evolving state (earlier
		// applied moves may have invalidated it) and keep balance.
		applied := 0
		for _, m := range all {
			v := int(m.V)
			if state.PartOf(v) == m.To {
				continue
			}
			if state.PartWeight(m.To)+h.Weight(v) > caps[m.To] {
				continue
			}
			if state.MoveGain(v, m.To) <= 0 {
				continue
			}
			state.Move(v, m.To)
			applied++
		}
		if applied == 0 {
			break
		}
	}
	// A final sequential polish pass on every rank (identical input →
	// identical output) tightens what the round protocol left behind.
	for pass := 0; pass < 2; pass++ {
		if !hgp.RefineKwayPass(state, caps) {
			break
		}
	}
}
