package gp

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"hyperbal/internal/gaintree"
	"hyperbal/internal/graph"
)

// This file keeps gp's 2-way kernels as they were before they selected
// moves from the shared gain tree — refGGP2 and refFM2, with the lazy
// heap, its stamps, ggp2's dead marks and fm2's re-push stash — as test
// oracles. The live kernels must reproduce them move for move: the same
// parts, the same cut and, for ggp2, the same RNG draws. The only edits
// are the names.

// oracleInstances is the number of randomized instances per kernel.
const oracleInstances = 1200

var (
	oracleEps      = []float64{0, 0.01, 0.05, 0.2}
	oracleFraction = []float64{0.5, 0.5, 0.37, 0.62}
)

// oracleGraph builds a random graph mixing unit, zero-weight and heavy
// (10–60×) vertices, with zero-weight edges and a density ranging from
// isolated vertices to about four neighbours per vertex.
func oracleGraph(rng *rand.Rand) *graph.Graph {
	n := 1 + rng.Intn(120)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		switch rng.Intn(10) {
		case 0:
			b.SetWeight(v, 0)
		case 1:
			b.SetWeight(v, int64(10+rng.Intn(51)))
		default:
			b.SetWeight(v, int64(1+rng.Intn(3)))
		}
	}
	for i := rng.Intn(2 * n); i > 0; i-- {
		b.AddEdge(rng.Intn(n), rng.Intn(n), int64(rng.Intn(5)))
	}
	return b.Build()
}

// oracleCaps mirrors bisect's coarse-level target and caps.
func oracleCaps(g *graph.Graph, frac0, eps float64) (t0, c0, c1 int64) {
	total := g.TotalWeight()
	t0 = int64(float64(total) * frac0)
	c0 = int64(float64(total) * frac0 * (1 + eps))
	c1 = int64(float64(total) * (1 - frac0) * (1 + eps))
	return t0, c0, c1
}

func TestGGP2Oracle(t *testing.T) {
	var ord gaintree.Order
	for i := 0; i < oracleInstances; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		g := oracleGraph(rng)
		t0, c0, _ := oracleCaps(g, oracleFraction[i%4], oracleEps[i/4%4])
		seed := rng.Int63()
		rngWant, rngGot := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		want := refGGP2(g, rngWant, t0, c0)
		ord.Build(g.Weights())
		got := ggp2(g, rngGot, t0, c0, &ord)
		if !slices.Equal(got, want) {
			t.Fatalf("instance %d: ggp2 parts differ from the reference kernel", i)
		}
		if g, w := rngGot.Int63(), rngWant.Int63(); g != w {
			t.Fatalf("instance %d: ggp2 drew a different RNG sequence", i)
		}
	}
}

func TestFM2Oracle(t *testing.T) {
	var ord gaintree.Order
	for i := 0; i < oracleInstances; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		g := oracleGraph(rng)
		n := g.NumVertices()
		t0, c0, c1 := oracleCaps(g, oracleFraction[i%4], oracleEps[i/4%4])
		if i%5 == 4 {
			// Caps no partition meets: both sides end over, and the
			// rescue rule moves into an over-cap destination.
			c0, c1 = c0/2, c1/2
		}
		var parts []int32
		if i%2 == 0 {
			// A random start leaning to one side, often far over its cap.
			lean := []int{2, 5, 8}[i/2%3]
			parts = make([]int32, n)
			for v := range parts {
				if rng.Intn(10) >= lean {
					parts[v] = 1
				}
			}
		} else {
			parts = refGGP2(g, rand.New(rand.NewSource(rng.Int63())), t0, c0)
		}
		passes := 1 + rng.Intn(4)
		want, got := slices.Clone(parts), slices.Clone(parts)
		wantCut := refFM2(g, want, c0, c1, passes)
		ord.Build(g.Weights())
		gotCut := fm2(g, got, c0, c1, passes, &ord)
		if gotCut != wantCut || !slices.Equal(got, want) {
			t.Fatalf("instance %d: fm2 cut %d differs from the reference kernel's %d, or its parts do", i, gotCut, wantCut)
		}
	}
}

// refGGP2 is ggp2 as it was: it grows side 0 greedily from a random seed
// until target0 weight is reached (greedy graph growing partitioning).
func refGGP2(g *graph.Graph, rng *rand.Rand, target0, cap0 int64) []int32 {
	n := g.NumVertices()
	parts := make([]int32, n)
	for v := range parts {
		parts[v] = 1
	}
	gh := newRefHeap(n)
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
		e, ok := gh.popLive()
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

// refFM2 is fm2 as it was: it refines a 2-way graph partition with FM
// pass-pairs and prefix rollback; returns the final cut.
func refFM2(g *graph.Graph, parts []int32, cap0, cap1 int64, maxPasses int) int64 {
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
		gh := newRefHeap(n)
		for v := 0; v < n; v++ {
			locked[v] = false
			gh.update(v, ed(g, parts, v))
		}
		moved = moved[:0]
		cur := cut
		bestPrefix, bestCut := 0, cut
		sinceBest := 0
		limit := n/20 + 50
		var stash []refEntry

		for {
			e, ok := gh.popLive()
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

// refHeap is the lazy max-heap of (vertex, gain) entries the kernels
// selected from: an update pushes a new entry with a fresh stamp, and a pop
// skips entries whose stamp is stale.
type refEntry struct {
	v     int32
	gain  int64
	stamp uint32
}

type refHeap struct {
	entries []refEntry
	stamp   []uint32
}

func newRefHeap(n int) *refHeap { return &refHeap{stamp: make([]uint32, n)} }

func (g *refHeap) Len() int { return len(g.entries) }
func (g *refHeap) Less(i, j int) bool {
	if g.entries[i].gain != g.entries[j].gain {
		return g.entries[i].gain > g.entries[j].gain
	}
	return g.entries[i].v < g.entries[j].v
}
func (g *refHeap) Swap(i, j int) { g.entries[i], g.entries[j] = g.entries[j], g.entries[i] }
func (g *refHeap) Push(x any)    { g.entries = append(g.entries, x.(refEntry)) }
func (g *refHeap) Pop() any {
	old := g.entries
	e := old[len(old)-1]
	g.entries = old[:len(old)-1]
	return e
}

func (g *refHeap) update(v int, gain int64) {
	g.stamp[v]++
	heap.Push(g, refEntry{v: int32(v), gain: gain, stamp: g.stamp[v]})
}

func (g *refHeap) popLive() (refEntry, bool) {
	for g.Len() > 0 {
		e := heap.Pop(g).(refEntry)
		if e.stamp == g.stamp[e.v] {
			return e, true
		}
	}
	return refEntry{}, false
}
