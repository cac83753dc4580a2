package hgp

import (
	"hyperbal/internal/hypergraph"
)

// bisectState tracks incremental cut bookkeeping for a 2-way partition:
// per-net pin counts on side 0, side weights, the exact cut, and
// targets/caps. The pin-count array is the caller's (a workspace arena),
// so building a state per level allocates nothing once the arenas are
// warm.
type bisectState struct {
	h          *hypergraph.Hypergraph
	parts      []int32
	pins0      []int32  // per net: pins currently in part 0
	w          [2]int64 // side weights
	cap        [2]int64 // max allowed side weights
	cut        int64    // cut size over every net, kept exact by move
	maxNetSize int
}

// init builds the state of parts over h, keeping the pin counts in pins0
// resized to h's nets (s.pins0 afterwards).
func (s *bisectState) init(h *hypergraph.Hypergraph, parts []int32, cap0, cap1 int64, maxNetSize int, pins0 []int32) {
	*s = bisectState{
		h:          h,
		parts:      parts,
		pins0:      growI32(pins0, h.NumNets()),
		cap:        [2]int64{cap0, cap1},
		maxNetSize: maxNetSize,
	}
	for v := 0; v < h.NumVertices(); v++ {
		s.w[parts[v]] += h.Weight(v)
	}
	for n := 0; n < h.NumNets(); n++ {
		pins := h.Pins(n)
		c := int32(0)
		for _, p := range pins {
			if parts[p] == 0 {
				c++
			}
		}
		s.pins0[n] = c
		if c > 0 && int(c) < len(pins) {
			s.cut += h.Cost(n)
		}
	}
}

// Cut returns the current cut size (2-way connectivity-1 == cut-net).
func (s *bisectState) Cut() int64 { return s.cut }

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

// gains fills g, resized to the vertex count, with every vertex's gain
// and returns it; move keeps it exact from then on.
func (s *bisectState) gains(g []int64) []int64 {
	g = growI64(g, s.h.NumVertices())
	for v := range g {
		g[v] = s.gain(v)
	}
	return g
}

// Move flips v to the other side and updates bookkeeping.
func (s *bisectState) Move(v int) { s.move(v, nil) }

// move flips v to the other side in one walk over its nets, updating the
// pin counts, side weights and cut and, unless g is nil, the gains g
// holds for every vertex: the classical FM delta rules over each net's
// pin counts, which leave g equal to gain everywhere.
func (s *bisectState) move(v int, g []int64) {
	from := s.parts[v]
	to := 1 - from
	w := s.h.Weight(v)
	s.w[from] -= w
	s.w[to] += w
	s.parts[v] = to
	var gv int64
	if g != nil {
		gv = g[v]
	}
	for _, nn := range s.h.Nets(v) {
		n := int(nn)
		sz := int32(s.h.NetSize(n))
		// f and t: pins on the source and destination side before the move.
		f := s.pins0[n]
		if from == 0 {
			s.pins0[n]--
		} else {
			f = sz - f
			s.pins0[n]++
		}
		t := sz - f
		c := s.h.Cost(n)
		if t == 0 && f > 1 {
			s.cut += c // net enters the cut
		} else if f == 1 && t > 0 {
			s.cut -= c // net leaves the cut
		}
		if g == nil || sz < 2 || int(sz) > s.maxNetSize {
			continue
		}
		// dF and dT: how the net's term changes for the pins left on the
		// source side and for those on the destination side.
		dF := netTerm(f-1, sz, c) - netTerm(f, sz, c)
		dT := netTerm(t+1, sz, c) - netTerm(t, sz, c)
		if dF == 0 && dT == 0 {
			continue
		}
		for _, p := range s.h.Pins(n) {
			if s.parts[p] == from {
				g[p] += dF
			} else {
				g[p] += dT
			}
		}
	}
	if g != nil {
		g[v] = -gv // moving back undoes the move
	}
}

// netTerm is what a net of size sz and cost c adds to a pin's gain when
// on of its pins, the pin included, are on the pin's side: +c when the pin
// is the last one there, -c when the net lies wholly there.
func netTerm(on, sz int32, c int64) int64 {
	switch on {
	case 1:
		return c
	case sz:
		return -c
	}
	return 0
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

// maxFit returns the largest weight fitsWeight(from, ·) accepts, or a
// negative number when it accepts none. With a = cap[to] - w[to], the
// destination's room, and oF = w[from] - cap[from], the source's overflow:
//
//   - a > 0 and oF > 0: a + oF - 1. Past a, the move rescues the source
//     while the destination's new overflow w - a stays under what the
//     source sheds, min(w, oF); that holds up to w = a + oF - 1.
//   - a <= 0: a. Only w = 0 fits a full destination (a = 0), and none fits
//     one already over its cap (a < 0): the destination's overflow grows
//     by w while the source's shrinks by at most w.
//   - oF <= 0: a. No side is over its cap, so there is nothing to rescue.
func (s *bisectState) maxFit(from int32) int64 {
	to := 1 - from
	a := s.cap[to] - s.w[to]
	oF := s.w[from] - s.cap[from]
	if a > 0 && oF > 0 {
		return a + oF - 1
	}
	return a
}

func over(w, cap int64) int64 {
	if w > cap {
		return w - cap
	}
	return 0
}
