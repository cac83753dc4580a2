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
	// gains' scratch: the candidate buffer, its dedup marks, and acc[q],
	// the cost of v's nets that already have a pin in candidate q. acc is
	// all zero between calls.
	cands []int32
	mark  []bool
	acc   []int64
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
		acc:      make([]int64, k),
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

// gains scores every destination of v in one pass over its nets. It
// returns base, the cut v's nets lose when it leaves its part minus the
// cost of all of them, and the parts its nets touch besides its own, in
// the order the first net touching each lists them (then ascending). For
// every q other than v's part, MoveGain(v, q) = base + s.acc[q]: acc[q]
// refunds the nets that already have a pin in q, and is zero for every
// part not returned. The caller zeroes acc over the returned parts. The
// slice is the state's scratch, valid until the next call.
func (s *KwayState) gains(v int) (base int64, cands []int32) {
	cands, mark, acc := s.cands[:0], s.mark, s.acc
	from := s.parts[v]
	for _, nn := range s.h.Nets(v) {
		n := int(nn)
		row := s.pinCount[n*s.k : (n+1)*s.k]
		c := s.h.Cost(n)
		if row[from] == 1 {
			base += c
		}
		base -= c
		// A net inside v's part touches no other part.
		lam := s.lambda[n]
		if lam == 1 {
			continue
		}
		for p, seen := 0, int32(0); seen < lam; p++ {
			if row[p] == 0 {
				continue
			}
			seen++
			if int32(p) == from {
				continue
			}
			acc[p] += c
			if !mark[p] {
				mark[p] = true
				cands = append(cands, int32(p))
			}
		}
	}
	for _, p := range cands {
		mark[p] = false
	}
	return base, cands
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
// index order, takes its sweepMove. Returns the number of moves.
func kwaySweep(s *KwayState, caps []int64) int {
	moves := 0
	for v := 0; v < s.h.NumVertices(); v++ {
		if s.h.Fixed(v) == hypergraph.Free && s.sweepMove(v, caps) {
			moves++
		}
	}
	obsKwayPasses.Inc()
	obsKwayMoves.Add(int64(moves))
	return moves
}

// regionSweep is kwaySweep over region, an ascending list of free
// vertices: the same pass on a view of h that fixes every other vertex to
// its part.
func regionSweep(s *KwayState, caps []int64, region []int32) int {
	moves := 0
	for _, v := range region {
		if s.sweepMove(int(v), caps) {
			moves++
		}
	}
	obsKwayPasses.Inc()
	obsKwayMoves.Add(int64(moves))
	return moves
}

// sweepMove moves v to its BestMove destination when that strictly lowers
// the cut, or — when v's part is over its cap — when it does not raise it.
// The gain is read after every move before it. Reports whether v moved.
func (s *KwayState) sweepMove(v int, caps []int64) bool {
	from := s.parts[v]
	to, gain := s.BestMove(v, caps)
	if to < 0 || !(gain > 0 || gain == 0 && s.w[from] > caps[from]) {
		return false
	}
	s.Move(v, to)
	return true
}

// BestMove returns the destination of v that fits under caps with the
// highest cut gain, among the parts v's nets touch, and that gain. The
// first candidate in gains' order wins a tie. It returns to = -1 when no
// candidate fits.
func (s *KwayState) BestMove(v int, caps []int64) (to int32, gain int64) {
	to = -1
	wv := s.h.Weight(v)
	base, cands := s.gains(v)
	for _, q := range cands {
		g := base + s.acc[q]
		s.acc[q] = 0
		if s.w[q]+wv > caps[q] {
			continue
		}
		if to < 0 || g > gain {
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
