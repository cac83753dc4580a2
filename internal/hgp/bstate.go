package hgp

import (
	"hyperbal/internal/hypergraph"
)

// bisectState tracks incremental cut bookkeeping for a 2-way partition:
// per-net pin counts on side 0, side weights, and targets/caps. The
// pin-count array comes from the workspace, so building a state per level
// or per start allocates nothing once the arenas are warm.
type bisectState struct {
	h          *hypergraph.Hypergraph
	parts      []int32
	pins0      []int32  // per net: pins currently in part 0
	w          [2]int64 // side weights
	cap        [2]int64 // max allowed side weights
	maxNetSize int
}

func (s *bisectState) init(h *hypergraph.Hypergraph, parts []int32, cap0, cap1 int64, maxNetSize int, ws *workspace) {
	ws.pins0 = growI32(ws.pins0, h.NumNets())
	*s = bisectState{
		h:          h,
		parts:      parts,
		pins0:      ws.pins0,
		cap:        [2]int64{cap0, cap1},
		maxNetSize: maxNetSize,
	}
	for v := 0; v < h.NumVertices(); v++ {
		s.w[parts[v]] += h.Weight(v)
	}
	for n := 0; n < h.NumNets(); n++ {
		c := int32(0)
		for _, p := range h.Pins(n) {
			if parts[p] == 0 {
				c++
			}
		}
		s.pins0[n] = c
	}
}

// Cut returns the current cut size (2-way connectivity-1 == cut-net).
func (s *bisectState) Cut() int64 {
	var c int64
	for n := 0; n < s.h.NumNets(); n++ {
		sz := int32(s.h.NetSize(n))
		if s.pins0[n] > 0 && s.pins0[n] < sz {
			c += s.h.Cost(n)
		}
	}
	return c
}

// gain returns the cut reduction of moving v to the other side. Nets larger
// than maxNetSize are skipped (approximation; the cut accounting in move()
// remains exact).
func (s *bisectState) gain(v int) int64 {
	var g int64
	from := s.parts[v]
	for _, nn := range s.h.Nets(v) {
		n := int(nn)
		sz := int32(s.h.NetSize(n))
		if sz < 2 || int(sz) > s.maxNetSize {
			continue
		}
		onFrom := s.pins0[n]
		if from == 1 {
			onFrom = sz - s.pins0[n]
		}
		if onFrom == 1 {
			g += s.h.Cost(n) // net leaves the cut
		} else if onFrom == sz {
			g -= s.h.Cost(n) // net enters the cut
		}
	}
	return g
}

// Move flips v to the other side and updates bookkeeping.
func (s *bisectState) Move(v int) {
	from := s.parts[v]
	to := 1 - from
	w := s.h.Weight(v)
	s.w[from] -= w
	s.w[to] += w
	s.parts[v] = to
	for _, nn := range s.h.Nets(v) {
		if from == 0 {
			s.pins0[nn]--
		} else {
			s.pins0[nn]++
		}
	}
}

// fitsWeight reports whether moving a vertex of weight w off side from
// keeps the destination under its cap, or rescues an over-cap source side
// without pushing the destination further over its cap than the source
// was.
//
// It is downward-closed in w, which is what lets fm2 select moves by
// prefix queries over the weight order. The destination test is monotone
// in w. The total overflow after the move is convex in w and equals the
// overflow before at w = 0, so the weights that strictly reduce it form an
// interval starting just above 0. And when w = 0 fails the destination
// test, the destination is already over its cap, every unit of weight
// adds a unit of overflow there, and no weight passes either test.
// Weights are non-negative.
func (s *bisectState) fitsWeight(from int32, w int64) bool {
	to := 1 - from
	if s.w[to]+w <= s.cap[to] {
		return true
	}
	// rescue: source side is over cap and the move strictly reduces the
	// total overflow.
	overBefore := over(s.w[0], s.cap[0]) + over(s.w[1], s.cap[1])
	overAfter := over(s.w[from]-w, s.cap[from]) + over(s.w[to]+w, s.cap[to])
	return overBefore > 0 && overAfter < overBefore
}

func over(w, cap int64) int64 {
	if w > cap {
		return w - cap
	}
	return 0
}
