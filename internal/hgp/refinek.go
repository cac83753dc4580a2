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
	// AdjacentParts' scratch: the candidate buffer and its dedup marks.
	cands []int32
	mark  []bool
}

func NewKwayState(h *hypergraph.Hypergraph, k int, parts []int32) *KwayState {
	s := &KwayState{
		h:        h,
		k:        k,
		parts:    parts,
		pinCount: make([]int32, h.NumNets()*k),
		lambda:   make([]int32, h.NumNets()),
		w:        make([]int64, k),
		cands:    make([]int32, 0, k),
		mark:     make([]bool, k),
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
// part), bounded by k; used to restrict candidate destinations. The
// returned slice is the state's scratch, valid until the next call.
func (s *KwayState) AdjacentParts(v int) []int32 {
	buf, mark := s.cands[:0], s.mark
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

// refineKway performs greedy k-way refinement: up to passes kwaySweep
// passes, stopping early after a pass that moves nothing. Fixed vertices
// never move. Returns the final cut.
func refineKway(h *hypergraph.Hypergraph, k int, parts []int32, caps []int64, passes int, ws *workspace) int64 {
	s := ws.kwayState(h, k, parts)
	defer s.release()
	for pass := 0; pass < passes; pass++ {
		if kwaySweep(s, caps) == 0 {
			break
		}
	}
	return s.Cut()
}

// kwaySweep is one greedy k-way pass over live state: each free vertex, in
// index order, moves to its BestMove destination when that strictly lowers
// the cut, or — when its part is over its cap — when it does not raise it.
// Every gain is read after the moves before it. Returns the number of
// moves.
func kwaySweep(s *KwayState, caps []int64) int {
	h := s.h
	moves := 0
	for v := 0; v < h.NumVertices(); v++ {
		if h.Fixed(v) != hypergraph.Free {
			continue
		}
		from := s.parts[v]
		if to, gain := s.BestMove(v, caps); to >= 0 && (gain > 0 || gain == 0 && s.w[from] > caps[from]) {
			s.Move(v, to)
			moves++
		}
	}
	obsKwayPasses.Inc()
	obsKwayMoves.Add(int64(moves))
	return moves
}

// BestMove returns the destination of v that fits under caps with the
// highest cut gain, among the parts v's nets touch, and that gain. The
// first candidate wins a tie. It returns to = -1 when no candidate fits.
func (s *KwayState) BestMove(v int, caps []int64) (to int32, gain int64) {
	to = -1
	wv := s.h.Weight(v)
	for _, q := range s.AdjacentParts(v) {
		if s.w[q]+wv > caps[q] {
			continue
		}
		if g := s.MoveGain(v, q); to < 0 || g > gain {
			to, gain = q, g
		}
	}
	return to, gain
}

// PartWeight returns the current total vertex weight of part p.
func (s *KwayState) PartWeight(p int32) int64 { return s.w[p] }

// PartOf returns the current part of vertex v.
func (s *KwayState) PartOf(v int) int32 { return s.parts[v] }

// RefineKwayPass exposes one kwaySweep for external drivers (the
// parallel partitioner applies sweeps between communication rounds). It
// returns whether any move was applied.
func RefineKwayPass(s *KwayState, caps []int64) bool {
	return kwaySweep(s, caps) > 0
}
