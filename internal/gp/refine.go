package gp

import (
	"math/rand"

	"hyperbal/internal/gaintree"
	"hyperbal/internal/graph"
)

// ed computes the external-minus-internal degree of v under parts: the FM
// gain of flipping v in a 2-way partition.
func ed(g *graph.Graph, parts []int32, v int) int64 {
	var gain int64
	pv := parts[v]
	adj, wts := g.Adj(v), g.AdjWeights(v)
	for i, u := range adj {
		if parts[u] == pv {
			gain -= wts[i]
		} else {
			gain += wts[i]
		}
	}
	return gain
}

func EdgeCutOf(g *graph.Graph, parts []int32) int64 {
	var cut int64
	for v := 0; v < g.NumVertices(); v++ {
		adj, wts := g.Adj(v), g.AdjWeights(v)
		for i, u := range adj {
			if int(u) > v && parts[u] != parts[v] {
				cut += wts[i]
			}
		}
	}
	return cut
}

// flip moves v to the other side of a 2-way partition and keeps the side
// weights w and the per-vertex gains exact: v's gain changes sign, and each
// neighbour's moves by twice the weight of its edge to v, down if it now
// shares v's side and up if it no longer does. g has no self loops.
func flip(g *graph.Graph, parts []int32, w *[2]int64, gain []int64, v int) {
	from, to := parts[v], 1-parts[v]
	parts[v] = to
	w[from] -= g.Weight(v)
	w[to] += g.Weight(v)
	gain[v] = -gain[v]
	adj, wts := g.Adj(v), g.AdjWeights(v)
	for i, u := range adj {
		if parts[u] == to {
			gain[u] -= 2 * wts[i]
		} else {
			gain[u] += 2 * wts[i]
		}
	}
}

// ggp2 grows side 0 greedily from a random seed until target0 weight is
// reached (greedy graph growing partitioning). Each step absorbs the best
// enqueued vertex, by (gain desc, vertex asc), that fits side 0's remaining
// room: a prefix query over ord, g's leaf order.
func ggp2(g *graph.Graph, rng *rand.Rand, target0, cap0 int64, ord *gaintree.Order) []int32 {
	n := g.NumVertices()
	parts := make([]int32, n)
	gain := make([]int64, n)
	for v := range parts {
		parts[v] = 1
		for _, wt := range g.AdjWeights(v) {
			gain[v] -= wt
		}
	}
	w := [2]int64{0, g.TotalWeight()}
	// The tree holds every side-1 vertex ever enqueued that has not moved.
	// Side 0 only grows, so one that overfilled it once never fits again:
	// it stays in the tree, outside every later query's prefix.
	var t gaintree.Tree
	t.Reset(n, ord)
	seed := func() bool {
		start := rng.Intn(n)
		for i := 0; i < n; i++ {
			v := (start + i) % n
			if parts[v] == 1 && !t.Active(v) {
				t.Update(v, 1, gain[v])
				return true
			}
		}
		return false
	}
	for w[0] < target0 {
		v := int(t.TopWithin(1, cap0-w[0]))
		if v < 0 {
			if !seed() {
				break
			}
			continue
		}
		t.Remove(v)
		flip(g, parts, &w, gain, v)
		for _, u := range g.Adj(v) {
			if parts[u] == 1 {
				t.Update(int(u), 1, gain[u])
			}
		}
	}
	return parts
}

// maxFit returns the largest vertex weight whose move off side from fits,
// or a negative number when none does. A move fits when the destination
// stays within its cap, or when the source is over its cap and the
// destination ends less far over its cap than the source was. With a =
// caps[to] - w[to], the destination's room, and oF = w[from] - caps[from],
// the source's overflow, that is a + oF - 1 when oF > 0, else a. Unlike
// hgp's rule, the rescue also moves into a destination that is full or
// over its cap (a <= 0).
func maxFit(w, caps [2]int64, from int32) int64 {
	a := caps[1-from] - w[1-from]
	if oF := w[from] - caps[from]; oF > 0 {
		return a + oF - 1
	}
	return a
}

// fm2 refines a 2-way graph partition with FM pass-pairs and prefix
// rollback; ord must be g's leaf order. It returns the final cut.
//
// Each move is the best unlocked vertex, by (gain desc, vertex asc), whose
// move fits (maxFit); a pass ends when none fits. Fitting is downward-closed
// in the vertex weight, so the move is the better of two prefix queries on
// the gain tree, one per side.
func fm2(g *graph.Graph, parts []int32, cap0, cap1 int64, maxPasses int, ord *gaintree.Order) int64 {
	n := g.NumVertices()
	caps := [2]int64{cap0, cap1}
	var w [2]int64
	gain := make([]int64, n)
	for v := 0; v < n; v++ {
		w[parts[v]] += g.Weight(v)
		gain[v] = ed(g, parts, v)
	}
	cut := EdgeCutOf(g, parts)
	moved := make([]int32, 0, n)
	var t gaintree.Tree

	for pass := 0; pass < maxPasses; pass++ {
		// The tree holds the unlocked vertices.
		t.Reset(n, ord)
		for v := 0; v < n; v++ {
			t.Load(v, parts[v], gain[v])
		}
		t.Build()
		moved = moved[:0]
		cur := cut
		bestPrefix, bestCut := 0, cut
		sinceBest := 0
		limit := n/20 + 50

		for {
			v := int(t.Better(t.TopWithin(0, maxFit(w, caps, 0)), t.TopWithin(1, maxFit(w, caps, 1))))
			if v < 0 {
				break
			}
			cur -= gain[v]
			t.Remove(v)
			flip(g, parts, &w, gain, v)
			moved = append(moved, int32(v))
			if cur < bestCut {
				bestCut = cur
				bestPrefix = len(moved)
				sinceBest = 0
			} else if sinceBest++; sinceBest > limit {
				break
			}
			for _, u := range g.Adj(v) {
				if t.Active(int(u)) {
					t.Update(int(u), parts[u], gain[u])
				}
			}
		}
		// Roll back past the best prefix. Only the gains must stay exact:
		// the next pass reloads the tree from them.
		for i := len(moved) - 1; i >= bestPrefix; i-- {
			flip(g, parts, &w, gain, int(moved[i]))
		}
		if bestCut >= cut {
			break
		}
		cut = bestCut
	}
	return cut
}

// RefineKway performs greedy k-way refinement passes on a graph partition.
// When oldPart is non-nil it optimizes the combined repartitioning
// objective of the unified scheme: itr*edgecut + migration (equivalently
// edgecut + migration/ITR), where moving v off its old part costs size(v)
// and moving it home refunds size(v). With oldPart nil it minimizes pure
// edge cut (itr ignored). Returns the final edge cut.
func RefineKway(g *graph.Graph, k int, parts []int32, oldPart []int32, itr int64, caps []int64, passes int) int64 {
	if itr < 1 {
		itr = 1
	}
	n := g.NumVertices()
	w := make([]int64, k)
	for v := 0; v < n; v++ {
		w[parts[v]] += g.Weight(v)
	}
	// connectivity per vertex to each part, computed on the fly per vertex
	conn := make([]int64, k)
	touched := make([]int32, 0, k)

	for pass := 0; pass < passes; pass++ {
		improved := false
		for v := 0; v < n; v++ {
			from := parts[v]
			adj, wts := g.Adj(v), g.AdjWeights(v)
			touched = touched[:0]
			for i, u := range adj {
				q := parts[u]
				if conn[q] == 0 {
					touched = append(touched, q)
				}
				conn[q] += wts[i]
			}
			var bestTo, forcedTo int32 = -1, -1
			var bestGain int64 = 0
			var forcedGain int64
			overFrom := w[from] > caps[from]
			consider := func(q int32) {
				if q == from || w[q]+g.Weight(v) > caps[q] {
					return
				}
				// combined gain scaled by itr: itr*(cut reduction) + mig delta
				cutGain := conn[q] - conn[from]
				var migGain int64
				if oldPart != nil {
					if from == oldPart[v] {
						migGain -= g.Size(v) // leaving home: pay migration
					}
					if q == oldPart[v] {
						migGain += g.Size(v) // returning home: refund
					}
				}
				gain := itr*cutGain + migGain
				if gain > bestGain {
					bestGain = gain
					bestTo = q
				}
				// forced candidate: least-bad move out of an over-cap part
				if overFrom && (forcedTo == -1 || gain > forcedGain) {
					forcedGain = gain
					forcedTo = q
				}
			}
			for _, q := range touched {
				consider(q)
			}
			if overFrom && forcedTo == -1 {
				// no adjacent part can take v; consider all parts (diffusion
				// out of a hot region must be able to jump boundaries)
				for q := int32(0); q < int32(k); q++ {
					consider(q)
				}
			}
			for _, q := range touched {
				conn[q] = 0
			}
			to := bestTo
			if bestGain <= 0 {
				to = -1
			}
			if to == -1 && overFrom {
				to = forcedTo
			}
			if to >= 0 {
				w[from] -= g.Weight(v)
				w[to] += g.Weight(v)
				parts[v] = to
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return EdgeCutOf(g, parts)
}
