package hgp

import (
	"hyperbal/internal/hypergraph"
)

// KwayState tracks per-net part pin counts for k-way incremental gain
// computation.
type KwayState struct {
	h     *hypergraph.Hypergraph
	k     int
	parts []int32
	// pinCount[n*k+p] = pins of net n in part p
	pinCount []int32
	// lambda[n] = current connectivity of net n
	lambda []int32
	w      []int64
}

func NewKwayState(h *hypergraph.Hypergraph, k int, parts []int32) *KwayState {
	s := &KwayState{
		h:        h,
		k:        k,
		parts:    parts,
		pinCount: make([]int32, h.NumNets()*k),
		lambda:   make([]int32, h.NumNets()),
		w:        make([]int64, k),
	}
	s.accumulate()
	return s
}

// accumulate fills part weights, per-net part pin counts, and
// connectivities from scratch; pinCount, lambda, and w must be zeroed.
func (s *KwayState) accumulate() {
	h, k, parts := s.h, s.k, s.parts
	for v := 0; v < h.NumVertices(); v++ {
		s.w[parts[v]] += h.Weight(v)
	}
	for n := 0; n < h.NumNets(); n++ {
		base := n * k
		for _, p := range h.Pins(n) {
			q := parts[p]
			if s.pinCount[base+int(q)] == 0 {
				s.lambda[n]++
			}
			s.pinCount[base+int(q)]++
		}
	}
}

// Cut returns the current connectivity-1 cut.
func (s *KwayState) Cut() int64 {
	var c int64
	for n := range s.lambda {
		if s.lambda[n] > 1 {
			c += s.h.Cost(n) * int64(s.lambda[n]-1)
		}
	}
	return c
}

// MoveGain returns the connectivity-1 cut reduction of moving v to part to.
func (s *KwayState) MoveGain(v int, to int32) int64 {
	from := s.parts[v]
	if from == to {
		return 0
	}
	var g int64
	for _, nn := range s.h.Nets(v) {
		n := int(nn)
		base := n * s.k
		// v leaves `from`: if it was the only pin there, lambda drops.
		if s.pinCount[base+int(from)] == 1 {
			g += s.h.Cost(n)
		}
		// v enters `to`: if no pin there yet, lambda grows.
		if s.pinCount[base+int(to)] == 0 {
			g -= s.h.Cost(n)
		}
	}
	return g
}

// Move applies the relocation and updates bookkeeping.
func (s *KwayState) Move(v int, to int32) {
	from := s.parts[v]
	if from == to {
		return
	}
	wv := s.h.Weight(v)
	s.w[from] -= wv
	s.w[to] += wv
	s.parts[v] = to
	for _, nn := range s.h.Nets(v) {
		base := int(nn) * s.k
		s.pinCount[base+int(from)]--
		if s.pinCount[base+int(from)] == 0 {
			s.lambda[nn]--
		}
		if s.pinCount[base+int(to)] == 0 {
			s.lambda[nn]++
		}
		s.pinCount[base+int(to)]++
	}
}

// AdjacentParts collects the parts that nets of v touch (excluding v's own
// part), bounded by k; used to restrict candidate destinations.
func (s *KwayState) AdjacentParts(v int, buf []int32, mark []bool) []int32 {
	buf = buf[:0]
	from := s.parts[v]
	for _, nn := range s.h.Nets(v) {
		base := int(nn) * s.k
		for p := 0; p < s.k; p++ {
			if int32(p) != from && s.pinCount[base+p] > 0 && !mark[p] {
				mark[p] = true
				buf = append(buf, int32(p))
			}
		}
	}
	for _, p := range buf {
		mark[p] = false
	}
	return buf
}

// refineKway performs greedy k-way refinement as synchronous
// propose–apply rounds. The propose phase computes, for every free vertex,
// the best positive-gain balanced destination against the round-start
// snapshot (plus the zero-gain escape for over-cap source parts). The
// apply phase then walks vertices in index order with attributed gains:
// each proposal's gain is recomputed against the *current* state and
// applied only if it still strictly improves the cut (or rebalances an
// over-cap part without worsening it), with balance caps enforced at apply
// time. Fixed vertices never move. Returns the final cut.
func refineKway(h *hypergraph.Hypergraph, k int, parts []int32, caps []int64, passes int, ws *workspace) int64 {
	n := h.NumVertices()
	s := ws.kwayState(h, k, parts)
	defer s.release()
	ws.kto = growI32(ws.kto, n)
	kto := ws.kto
	rounds, conflicts := 0, 0
	for pass := 0; pass < passes; pass++ {
		rounds++
		proposeMoves(s, caps, kto, ws)
		moves := 0
		for v := 0; v < n; v++ {
			to := kto[v]
			if to < 0 {
				continue
			}
			from := s.parts[v]
			applied := false
			if to != from && s.w[to]+h.Weight(v) <= caps[to] {
				// Attributed gain: the snapshot only nominated the
				// destination; the gain that counts is the one at apply time.
				g := s.MoveGain(v, to)
				if g > 0 || (g >= 0 && s.w[from] > caps[from]) {
					s.Move(v, to)
					moves++
					applied = true
				}
			}
			if !applied {
				conflicts++ // earlier applies invalidated this proposal
			}
		}
		obsKwayPasses.Inc()
		obsKwayMoves.Add(int64(moves))
		if moves == 0 {
			break
		}
	}
	obsKernelRounds.Add(int64(rounds))
	obsKernelConflicts.Add(int64(conflicts))
	return s.Cut()
}

// proposeMoves fills kto with the proposed destination of each vertex (-1
// when the snapshot admits no move): the best-positive-gain destination
// under the caps, else — for vertices on an over-cap source part — the
// first non-worsening feasible destination. It only reads the refinement
// state.
func proposeMoves(s *KwayState, caps []int64, kto []int32, ws *workspace) {
	h := s.h
	ws.kbuf = growI32(ws.kbuf, s.k)
	ws.kmark = growBool(ws.kmark, s.k)
	buf, mark := ws.kbuf[:0], ws.kmark
	for v := range kto {
		kto[v] = -1
		if h.Fixed(v) != hypergraph.Free {
			continue
		}
		cands := s.AdjacentParts(v, buf, mark)
		from := s.parts[v]
		wv := h.Weight(v)
		var bestTo int32 = -1
		var bestGain int64
		for _, to := range cands {
			if s.w[to]+wv > caps[to] {
				continue
			}
			if g := s.MoveGain(v, to); g > bestGain {
				bestGain = g
				bestTo = to
			}
		}
		// also allow zero-gain moves that reduce imbalance of an over-cap
		// source part
		if bestTo == -1 && s.w[from] > caps[from] {
			for _, to := range cands {
				if s.w[to]+wv <= caps[to] && s.MoveGain(v, to) >= 0 {
					bestTo = to
					break
				}
			}
		}
		kto[v] = bestTo
	}
}

// PartWeight returns the current total vertex weight of part p.
func (s *KwayState) PartWeight(p int32) int64 { return s.w[p] }

// PartOf returns the current part of vertex v.
func (s *KwayState) PartOf(v int) int32 { return s.parts[v] }

// RefineKwayPass exposes one greedy k-way refinement sweep for external
// drivers (the parallel partitioner applies sweeps between communication
// rounds). It returns whether any move was applied.
func RefineKwayPass(s *KwayState, caps []int64) bool {
	h, k := s.h, s.k
	buf := make([]int32, 0, k)
	mark := make([]bool, k)
	moves := 0
	for v := 0; v < h.NumVertices(); v++ {
		if h.Fixed(v) != hypergraph.Free {
			continue
		}
		cands := s.AdjacentParts(v, buf, mark)
		var bestTo int32 = -1
		var bestGain int64
		for _, to := range cands {
			if s.w[to]+h.Weight(v) > caps[to] {
				continue
			}
			if g := s.MoveGain(v, to); g > bestGain {
				bestGain = g
				bestTo = to
			}
		}
		if bestTo >= 0 && bestGain > 0 {
			s.Move(v, bestTo)
			moves++
		}
	}
	obsKwayPasses.Inc()
	obsKwayMoves.Add(int64(moves))
	return moves > 0
}
