package hgp

import (
	"fmt"
	"math/rand"
	"time"

	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

// Partition computes a k-way partition of h honoring any fixed-vertex
// labels carried by h by recursive bisection with fixed-label folding
// (Zoltan's approach, Section 4.4) and a final k-way polish. The result
// satisfies Eq. 1 with Options.Imbalance on all but pathological inputs
// (e.g. a single vertex heavier than a part cap); callers can check with
// partition.IsBalanced.
func Partition(h *hypergraph.Hypergraph, opt Options) (partition.Partition, error) {
	opt = opt.WithDefaults()
	if err := checkFixed(h, opt.K); err != nil {
		return partition.Partition{}, err
	}
	p := partition.Partition{Parts: make([]int32, h.NumVertices()), K: opt.K}
	if opt.K == 1 {
		return p, nil
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	px := newParctx(opt.Parallelism)
	ws := wsPool.Get().(*workspace)
	defer wsPool.Put(ws)

	vs := make([]int32, h.NumVertices())
	for v := range vs {
		vs[v] = int32(v)
	}
	eps := bisectionEps(opt.Imbalance, opt.K)
	recursiveBisect(h, vs, 0, opt.K, p.Parts, rng, eps, px, ws)
	// Final k-way polish pass to recover from per-bisection myopia.
	caps := partition.Caps(h.TotalWeight(), opt.K, opt.Imbalance)
	polishStart := time.Now()
	refineKway(h, opt.K, p.Parts, caps, RefinePasses, ws)
	obsPolishNs.ObserveSince(polishStart)
	return p, nil
}

func checkFixed(h *hypergraph.Hypergraph, k int) error {
	if !h.HasFixed() {
		return nil
	}
	for v := 0; v < h.NumVertices(); v++ {
		if f := h.Fixed(v); f != hypergraph.Free && (f < 0 || int(f) >= k) {
			return fmt.Errorf("hgp: vertex %d fixed to part %d, want [0,%d)", v, f, k)
		}
	}
	return nil
}
