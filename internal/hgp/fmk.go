package hgp

import (
	"hyperbal/internal/hypergraph"
)

// refineKwayFM is the gain-ordered variant of k-way refinement: a
// Fiduccia–Mattheyses-style pass over boundary vertices with hill
// climbing and best-prefix rollback, generalized from 2-way to k-way
// (each vertex's best destination is recomputed when it is selected). It is
// slower per pass than refineKway's greedy kwaySweep but escapes
// shallower local minima; Options.KwayFM selects it for the final polish
// (the A5 ablation measures the trade-off). Fixed vertices never move.
//
// Each pass seeds the gain tree with one KwayState.BestMove evaluation per
// free vertex against the pass-start state. The hill-climbing selection
// then recomputes each selected move against the current state (attributed
// gains). Neighbour gains are refreshed across nets of at most maxNetSize
// pins.
//
// Returns the final cut.
func refineKwayFM(h *hypergraph.Hypergraph, k int, parts []int32, caps []int64, maxPasses, maxNetSize int, ws *workspace) int64 {
	n := h.NumVertices()
	s := ws.kwayState(h, k, parts)
	defer s.release()
	ws.klocked = growBool(ws.klocked, n)
	locked := ws.klocked

	type appliedMove struct {
		v    int32
		from int32
	}

	t := &ws.tree
	for pass := 0; pass < maxPasses; pass++ {
		t.Reset(n, nil)
		for v := 0; v < n; v++ {
			locked[v] = false
			if h.Fixed(v) != hypergraph.Free {
				continue
			}
			if to, gain := s.BestMove(v, caps); to >= 0 {
				// destination stays implicit: recompute at selection (state
				// changes invalidate it anyway); the tree orders by gain.
				t.Load(v, 0, gain)
			}
		}
		t.Build()
		if t.Top(0) < 0 {
			break
		}
		var moves []appliedMove
		var cum, best int64
		bestPrefix := 0
		sinceBest := 0
		limit := n/20 + 50

		for {
			v := int(t.Top(0))
			if v < 0 {
				break
			}
			t.Remove(v)
			to, gain := s.BestMove(v, caps) // fresh evaluation against current state
			if to < 0 {
				continue
			}
			from := s.PartOf(v)
			s.Move(v, to)
			locked[v] = true
			moves = append(moves, appliedMove{v: int32(v), from: from})
			cum += gain
			if cum > best {
				best = cum
				bestPrefix = len(moves)
				sinceBest = 0
			} else if sinceBest++; sinceBest > limit {
				break
			}
			// refresh unlocked neighbors
			for _, nn := range h.Nets(v) {
				pins := h.Pins(int(nn))
				if len(pins) > maxNetSize {
					continue
				}
				for _, p := range pins {
					u := int(p)
					if !locked[u] && h.Fixed(u) == hypergraph.Free {
						if uto, ug := s.BestMove(u, caps); uto >= 0 {
							t.Update(u, 0, ug)
						} else {
							t.Remove(u)
						}
					}
				}
			}
		}
		// rollback past the best prefix
		for i := len(moves) - 1; i >= bestPrefix; i-- {
			s.Move(int(moves[i].v), moves[i].from)
		}
		obsKwayPasses.Inc()
		obsKwayMoves.Add(int64(bestPrefix))
		if best <= 0 {
			break
		}
	}
	return s.Cut()
}
