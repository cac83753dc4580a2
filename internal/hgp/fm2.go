package hgp

import (
	"hyperbal/internal/gaintree"
	"hyperbal/internal/hypergraph"
)

// fm2 refines a 2-way partition in place using the Fiduccia–Mattheyses
// heuristic with pass-pairs and prefix rollback (Section 4.3). Vertices
// with fixedSide != Free are never moved. parts must be a 0/1 assignment
// and ord h's leaf order. It returns the final cut size.
//
// fm2 builds the state of parts and continues in fm2From, which is where
// the coarse solve's starts enter with the state ghg2 hands them.
func fm2(h *hypergraph.Hypergraph, parts []int32, fixedSide []int32, cap0, cap1 int64, maxPasses, maxNetSize int, ord *gaintree.Order, ws *workspace) int64 {
	var s bisectState
	s.init(h, parts, cap0, cap1, maxNetSize, ws.pins0)
	ws.pins0 = s.pins0
	ws.gains = s.gains(ws.gains)
	return fm2From(&s, fixedSide, maxPasses, ord, ws)
}

// fm2From is fm2 continuing from s, which must be exact, with ws.gains
// holding its gains; it refines s.parts in place and leaves s exact.
//
// Each move is the best unlocked free vertex, by (gain desc, vertex asc),
// whose move fits (fitsWeight); a pass ends when none fits. Fitting is
// downward-closed in vertex weight on each side, so the move is the better
// of two prefix queries on the gain tree, one per side, each up to the
// side's maxFit.
func fm2From(s *bisectState, fixedSide []int32, maxPasses int, ord *gaintree.Order, ws *workspace) int64 {
	h, parts, g := s.h, s.parts, ws.gains
	n := h.NumVertices()
	maxNetSize := s.maxNetSize

	moved := growI32(ws.moved, n)[:0] // move order within a pass, for rollback
	ws.locked = growBool(ws.locked, n)
	locked := ws.locked
	t := &ws.tree

	for pass := 0; pass < maxPasses; pass++ {
		t.Reset(n, ord)
		for v := 0; v < n; v++ {
			locked[v] = false
			if fixedSide[v] == hypergraph.Free {
				t.Load(v, parts[v], g[v])
			}
		}
		t.Build()
		moved = moved[:0]
		curCut := s.Cut()
		passStartCut := curCut
		bestPrefix := 0
		bestPrefixCut := curCut
		sinceBest := 0
		limit := n/20 + 50

		for {
			v := int(t.Better(t.TopWithin(0, s.maxFit(0)), t.TopWithin(1, s.maxFit(1))))
			if v < 0 {
				break
			}
			// The tree's gain is exact: a move changes only the gains of
			// the pins the refresh below pushes, since move skips the nets
			// the refresh skips.
			gv := t.Gain(v)
			t.Remove(v)
			s.move(v, g)
			locked[v] = true
			moved = append(moved, int32(v))
			curCut -= gv
			if curCut < bestPrefixCut {
				bestPrefixCut = curCut
				bestPrefix = len(moved)
				sinceBest = 0
			} else {
				sinceBest++
				if sinceBest > limit {
					break
				}
			}
			// push the gains of unlocked neighbors; update skips the
			// unchanged ones
			for _, nn := range h.Nets(v) {
				pins := h.Pins(int(nn))
				if len(pins) > maxNetSize {
					continue
				}
				for _, p := range pins {
					u := int(p)
					if !locked[u] && fixedSide[u] == hypergraph.Free {
						t.Update(u, parts[u], g[u])
					}
				}
			}
		}
		// Roll back to the best prefix. Only g must stay exact: the next
		// pass reloads the tree from it.
		for i := len(moved) - 1; i >= bestPrefix; i-- {
			s.move(int(moved[i]), g)
		}
		obsFM2Passes.Inc()
		obsFM2Moves.Add(int64(bestPrefix))
		if bestPrefixCut >= passStartCut {
			break // no improvement this pass
		}
	}
	ws.moved = moved
	return s.Cut()
}
