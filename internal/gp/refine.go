package gp

import (
	"container/heap"
	"math/rand"

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

// ggp2 grows side 0 greedily from a random seed until target0 weight is
// reached (greedy graph growing partitioning).
func ggp2(g *graph.Graph, rng *rand.Rand, target0, cap0 int64) []int32 {
	n := g.NumVertices()
	parts := make([]int32, n)
	for v := range parts {
		parts[v] = 1
	}
	gh := newGainHeap(n)
	dead := make([]bool, n)
	inHeap := make([]bool, n)
	seed := func() bool {
		start := rng.Intn(n)
		for i := 0; i < n; i++ {
			v := (start + i) % n
			if parts[v] == 1 && !inHeap[v] && !dead[v] {
				gh.update(v, ed(g, parts, v))
				inHeap[v] = true
				return true
			}
		}
		return false
	}
	var w0 int64
	for w0 < target0 {
		e, ok := gh.popValid()
		if !ok {
			if !seed() {
				break
			}
			continue
		}
		v := int(e.v)
		inHeap[v] = false
		if parts[v] != 1 {
			continue
		}
		if w0+g.Weight(v) > cap0 {
			dead[v] = true
			continue
		}
		parts[v] = 0
		w0 += g.Weight(v)
		for _, u := range g.Adj(v) {
			if parts[u] == 1 && !dead[u] {
				gh.update(int(u), ed(g, parts, int(u)))
				inHeap[u] = true
			}
		}
	}
	return parts
}

// fm2 refines a 2-way graph partition with FM pass-pairs and prefix
// rollback; returns the final cut.
func fm2(g *graph.Graph, parts []int32, cap0, cap1 int64, maxPasses int) int64 {
	n := g.NumVertices()
	caps := [2]int64{cap0, cap1}
	var w [2]int64
	for v := 0; v < n; v++ {
		w[parts[v]] += g.Weight(v)
	}
	cut := EdgeCutOf(g, parts)
	moved := make([]int32, 0, n)
	locked := make([]bool, n)

	for pass := 0; pass < maxPasses; pass++ {
		gh := newGainHeap(n)
		for v := 0; v < n; v++ {
			locked[v] = false
			gh.update(v, ed(g, parts, v))
		}
		moved = moved[:0]
		cur := cut
		bestPrefix, bestCut := 0, cut
		sinceBest := 0
		limit := n/20 + 50
		var stash []gainEntry

		for {
			e, ok := gh.popValid()
			if !ok {
				break
			}
			v := int(e.v)
			if locked[v] {
				continue
			}
			from := parts[v]
			to := 1 - from
			wv := g.Weight(v)
			if w[to]+wv > caps[to] && !(w[from] > caps[from] && w[to]+wv-caps[to] < w[from]-caps[from]) {
				stash = append(stash, e)
				continue
			}
			for _, se := range stash {
				if !locked[se.v] {
					gh.update(int(se.v), se.gain)
				}
			}
			stash = stash[:0]

			gain := ed(g, parts, v)
			parts[v] = to
			w[from] -= wv
			w[to] += wv
			locked[v] = true
			moved = append(moved, int32(v))
			cur -= gain
			if cur < bestCut {
				bestCut = cur
				bestPrefix = len(moved)
				sinceBest = 0
			} else if sinceBest++; sinceBest > limit {
				break
			}
			for _, u := range g.Adj(v) {
				if !locked[u] {
					gh.update(int(u), ed(g, parts, int(u)))
				}
			}
		}
		// rollback past the best prefix
		for i := len(moved) - 1; i >= bestPrefix; i-- {
			v := int(moved[i])
			from := parts[v]
			parts[v] = 1 - from
			w[from] -= g.Weight(v)
			w[1-from] += g.Weight(v)
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

// gainHeap is a lazy max-heap of (vertex, gain) entries. hgp's FM kernels
// select from an exact winner tree instead, which would also retire fm2's
// re-push stash here.
type gainEntry struct {
	v     int32
	gain  int64
	stamp uint32
}

type gainHeap struct {
	entries []gainEntry
	stamp   []uint32
}

func newGainHeap(n int) *gainHeap { return &gainHeap{stamp: make([]uint32, n)} }

func (g *gainHeap) Len() int { return len(g.entries) }
func (g *gainHeap) Less(i, j int) bool {
	if g.entries[i].gain != g.entries[j].gain {
		return g.entries[i].gain > g.entries[j].gain
	}
	return g.entries[i].v < g.entries[j].v
}
func (g *gainHeap) Swap(i, j int) { g.entries[i], g.entries[j] = g.entries[j], g.entries[i] }
func (g *gainHeap) Push(x any)    { g.entries = append(g.entries, x.(gainEntry)) }
func (g *gainHeap) Pop() any {
	old := g.entries
	e := old[len(old)-1]
	g.entries = old[:len(old)-1]
	return e
}

func (g *gainHeap) update(v int, gain int64) {
	g.stamp[v]++
	heap.Push(g, gainEntry{v: int32(v), gain: gain, stamp: g.stamp[v]})
}

func (g *gainHeap) popValid() (gainEntry, bool) {
	for g.Len() > 0 {
		e := heap.Pop(g).(gainEntry)
		if e.stamp == g.stamp[e.v] {
			return e, true
		}
	}
	return gainEntry{}, false
}
