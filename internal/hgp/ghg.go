package hgp

import (
	"math/rand"
	"slices"

	"hyperbal/internal/gaintree"
	"hyperbal/internal/hypergraph"
)

// coarseStart is the state every ghg2 start of one coarse solve begins
// from: side 1 everywhere except the vertices fixed to side 0, with its
// pin counts, side weights, cut and gains. It depends on the level, the
// fixed sides, the caps and maxNetSize only, so coarseStarts builds it
// once per coarse solve and the starts copy it; they share it read-only.
type coarseStart struct {
	s     bisectState
	gains []int64
}

// coarseStart builds h's start state in ws's own arrays and returns it. It
// stays valid until the next coarseStart call on ws.
func (ws *workspace) coarseStart(h *hypergraph.Hypergraph, fixedSide []int32, cap0, cap1 int64, maxNetSize int) *coarseStart {
	st := &ws.start
	parts := growI32(st.s.parts, h.NumVertices())
	for v := range parts {
		parts[v] = 1
		if fixedSide[v] == 0 {
			parts[v] = 0
		}
	}
	st.s.init(h, parts, cap0, cap1, maxNetSize, st.s.pins0)
	st.gains = st.s.gains(st.gains)
	return st
}

// begin returns a copy of the start for one run on ws: a fresh partition,
// which outlives the run, and the pin counts and gains in ws's arrays.
func (st *coarseStart) begin(ws *workspace) bisectState {
	s := st.s
	s.parts = slices.Clone(st.s.parts)
	ws.pins0 = append(ws.pins0[:0], st.s.pins0...)
	s.pins0 = ws.pins0
	ws.gains = append(ws.gains[:0], st.gains...)
	return s
}

// release drops the start's reference to the level so pooled workspaces
// do not keep it alive.
func (st *coarseStart) release() { st.s.h = nil }

// ghg2 computes a 2-way initial partition by randomized greedy hypergraph
// growing (Section 4.2) from st, honoring fixed vertices: vertices fixed to
// side 0 seed the growing side and vertices fixed to side 1 are never
// absorbed. target0 is the desired weight of side 0; st's caps bound the
// sides. Each step absorbs the best enqueued vertex, by (gain desc, vertex
// asc), that fits side 0's remaining room: a prefix query over ord, the
// level's leaf order.
//
// fixedSide must map each vertex to 0, 1, or hypergraph.Free (side-folded
// labels, not original part ids). ghg2 returns its final state, exact, with
// ws.gains holding its gains, for fm2From to continue from. Its partition
// is freshly allocated (multi-start keeps several alive at once); all
// other scratch lives in ws.
//
// ghg2 also reports whether it drew from rng. Every start of a coarse
// solve begins from the same st, so a run that drew nothing grew the
// partition every start grows.
func ghg2(st *coarseStart, rng *rand.Rand, fixedSide []int32, target0 int64, ord *gaintree.Order, ws *workspace) (s bisectState, drew bool) {
	s = st.begin(ws)
	h, parts, g := s.h, s.parts, ws.gains
	n := h.NumVertices()

	// The tree holds every side-1 vertex ever enqueued that has not moved.
	// Side 0 only grows, so one that overfilled it once never fits again:
	// it stays in the tree, outside every later query's prefix.
	t := &ws.tree
	t.Reset(n, ord)
	seed := func() bool {
		// find a random movable vertex on side 1 to restart growth
		drew = true
		start := rng.Intn(n)
		for i := 0; i < n; i++ {
			v := (start + i) % n
			if parts[v] == 1 && fixedSide[v] != 1 && !t.Active(v) {
				t.Update(v, 1, g[v])
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
				if parts[u] == 1 && fixedSide[u] != 1 && !t.Active(u) {
					t.Update(u, 1, g[u])
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
		v := int(t.TopWithin(1, s.cap[0]-s.w[0]))
		if v < 0 {
			if !seed() {
				break // nothing left to grow
			}
			continue
		}
		t.Remove(v)
		s.move(v, g)
		// enqueue/refresh neighbors on side 1
		for _, nn := range h.Nets(v) {
			pins := h.Pins(int(nn))
			if len(pins) > s.maxNetSize {
				continue
			}
			for _, p := range pins {
				u := int(p)
				if parts[u] == 1 && fixedSide[u] != 1 {
					t.Update(u, 1, g[u])
				}
			}
		}
	}
	return s, drew
}
