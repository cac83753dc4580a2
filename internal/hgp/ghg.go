package hgp

import (
	"math/rand"

	"hyperbal/internal/hypergraph"
)

// ghg2 computes a 2-way initial partition by randomized greedy hypergraph
// growing (Section 4.2) honoring fixed vertices: vertices fixed to side 0
// seed the growing side and vertices fixed to side 1 are never absorbed.
// target0 is the desired weight of side 0; cap0/cap1 bound the sides.
// Each step absorbs the best enqueued vertex, by (gain desc, vertex asc),
// that fits side 0's remaining room: a prefix query over ord, h's leaf
// order.
//
// fixedSide must map each vertex to 0, 1, or hypergraph.Free (side-folded
// labels, not original part ids). The returned partition is freshly
// allocated (multi-start keeps several alive at once); all other scratch
// lives in ws.
func ghg2(h *hypergraph.Hypergraph, rng *rand.Rand, fixedSide []int32, target0, cap0, cap1 int64, maxNetSize int, ord *leafOrder, ws *workspace) []int32 {
	n := h.NumVertices()
	parts := make([]int32, n)
	for v := range parts {
		parts[v] = 1
	}
	for v, f := range fixedSide {
		if f == 0 {
			parts[v] = 0
		}
	}
	var s bisectState
	s.init(h, parts, cap0, cap1, maxNetSize, ws)
	ws.gains = s.gains(ws.gains)
	g := ws.gains

	// The tree holds every side-1 vertex ever enqueued that has not moved.
	// Side 0 only grows, so one that overfilled it once never fits again:
	// it stays in the tree, outside every later query's prefix.
	t := &ws.tree
	t.reset(n, ord)
	fits := func(v int32) bool { return s.w[0]+h.Weight(int(v)) <= cap0 }
	seed := func() bool {
		// find a random movable vertex on side 1 to restart growth
		start := rng.Intn(n)
		for i := 0; i < n; i++ {
			v := (start + i) % n
			if parts[v] == 1 && fixedSide[v] != 1 && !t.active(v) {
				t.update(v, 1, g[v])
				return true
			}
		}
		return false
	}
	// Seed with neighbors of side-0 fixed vertices first so growth starts
	// around them; otherwise from a random vertex.
	seeded := false
	for v := 0; v < n && !seeded; v++ {
		if parts[v] != 0 {
			continue
		}
		for _, nn := range h.Nets(v) {
			for _, p := range h.Pins(int(nn)) {
				u := int(p)
				if parts[u] == 1 && fixedSide[u] != 1 && !t.active(u) {
					t.update(u, 1, g[u])
					seeded = true
				}
			}
			if seeded {
				break
			}
		}
	}
	if !seeded {
		seed()
	}

	for s.w[0] < target0 {
		v := int(t.topFitting(1, fits))
		if v < 0 {
			if !seed() {
				break // nothing left to grow
			}
			continue
		}
		t.remove(v)
		s.move(v, g)
		// enqueue/refresh neighbors on side 1
		for _, nn := range h.Nets(v) {
			pins := h.Pins(int(nn))
			if len(pins) > maxNetSize {
				continue
			}
			for _, p := range pins {
				u := int(p)
				if parts[u] == 1 && fixedSide[u] != 1 {
					t.update(u, 1, g[u])
				}
			}
		}
	}
	return parts
}
