package hgp

import (
	"math/rand"
	"slices"

	"hyperbal/internal/hypergraph"
)

// recursiveBisect partitions the vertex subset vs (global vertex ids) of
// the original hypergraph into parts [lo, hi), writing assignments into
// out. sub is the sub-hypergraph induced by vs (sub vertex i == global
// vertex vs[i]). Fixed labels on sub are original part ids; they are folded
// per Section 4.4 at each bisection.
//
// After a bisection the two sides are independent: the left recursion may
// run on a px worker while the right continues on the caller's goroutine.
// Each side receives an RNG seeded from the parent's stream in a fixed
// order (left first), and the sides write disjoint ranges of out, so the
// result does not depend on the interleaving.
func recursiveBisect(sub *hypergraph.Hypergraph, vs []int32, lo, hi int, out []int32, rng *rand.Rand, eps float64, px *parctx, ws *workspace) {
	k := hi - lo
	if k <= 1 || sub.NumVertices() == 0 {
		for _, v := range vs {
			out[v] = int32(lo)
		}
		return
	}
	kLeft := (k + 1) / 2
	mid := lo + kLeft
	// Side-0 target = its parts' share of the range's uniform parts.
	frac0 := float64(kLeft) / float64(k)

	// Fold fixed labels: parts [lo,mid) -> side 0, [mid,hi) -> side 1.
	// The slice must stay untouched for the duration of bisect (the fixed
	// view aliases it), but is dead before the recursion reuses ws.
	ws.fixedSide = growI32(ws.fixedSide, sub.NumVertices())
	fixedSide := ws.fixedSide
	for v := range fixedSide {
		f := sub.Fixed(v)
		switch {
		case f == hypergraph.Free:
			fixedSide[v] = hypergraph.Free
		case int(f) < mid:
			fixedSide[v] = 0
		default:
			fixedSide[v] = 1
		}
	}

	sides := bisect(sub, rng, fixedSide, frac0, eps, px, ws)

	if k == 2 {
		for i, v := range vs {
			out[v] = int32(lo + int(sides[i]))
		}
		return
	}
	left, leftVs := induce(sub, vs, sides, 0, ws)
	right, rightVs := induce(sub, vs, sides, 1, ws)
	seedL := rng.Int63()
	seedR := rng.Int63()
	join := px.fork(func(ws2 *workspace) {
		recursiveBisect(left, leftVs, lo, mid, out, rand.New(rand.NewSource(seedL)), eps, px, ws2)
	})
	recursiveBisect(right, rightVs, mid, hi, out, rand.New(rand.NewSource(seedR)), eps, px, ws)
	join()
}

// induce extracts the side sub-hypergraph: vertices of sub on the given
// side, nets restricted to pins on that side (nets reduced below two pins
// are dropped; they can no longer be cut within the side). Fixed labels
// (original part ids) carry over. The returned vertex list maps new sub
// indices to global ids. The CSR arrays are assembled directly; only the
// id-remap table is workspace scratch.
func induce(sub *hypergraph.Hypergraph, vs []int32, sides []int32, side int32, ws *workspace) (*hypergraph.Hypergraph, []int32) {
	ws.newID = growI32(ws.newID, sub.NumVertices())
	newID := ws.newID
	for i := range newID {
		newID[i] = -1
	}
	var keepVs []int32
	for v := 0; v < sub.NumVertices(); v++ {
		if sides[v] == side {
			newID[v] = int32(len(keepVs))
			keepVs = append(keepVs, vs[v])
		}
	}
	nKeep := len(keepVs)
	weights := make([]int64, nKeep)
	sizes := make([]int64, nKeep)
	var fixed []int32
	if sub.HasFixed() {
		fixed = make([]int32, nKeep)
		for i := range fixed {
			fixed[i] = hypergraph.Free
		}
	}
	hasFixed := false
	for v := 0; v < sub.NumVertices(); v++ {
		i := newID[v]
		if i < 0 {
			continue
		}
		weights[i] = sub.Weight(v)
		sizes[i] = sub.Size(v)
		if fixed != nil {
			if f := sub.Fixed(v); f != hypergraph.Free {
				fixed[i] = f
				hasFixed = true
			}
		}
	}
	if !hasFixed {
		fixed = nil
	}

	netStart := make([]int32, 1, sub.NumNets()+1)
	netPins := make([]int32, 0, sub.NumPins())
	var costs []int64
	for n := 0; n < sub.NumNets(); n++ {
		mark := len(netPins)
		for _, p := range sub.Pins(n) {
			if newID[p] >= 0 {
				netPins = append(netPins, newID[p])
			}
		}
		if len(netPins)-mark < 2 {
			netPins = netPins[:mark]
			continue
		}
		slices.Sort(netPins[mark:])
		netStart = append(netStart, int32(len(netPins)))
		costs = append(costs, sub.Cost(n))
	}
	return hypergraph.FromCSR(netStart, netPins, costs, weights, sizes, fixed), keepVs
}
