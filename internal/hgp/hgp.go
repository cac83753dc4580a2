package hgp

import (
	"fmt"
	"math/rand"
	"time"

	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

// Partition computes a k-way partition of h honoring any fixed-vertex
// labels carried by h. By default it uses recursive bisection (Zoltan's
// approach, Section 4.4); Options.DirectKway selects the direct k-way
// driver instead. The result satisfies Eq. 1 with Options.Imbalance on all
// but pathological inputs (e.g. a single vertex heavier than a part cap);
// callers can check with partition.IsBalanced.
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

	if opt.DirectKway {
		directKway(h, rng, opt, p.Parts, px, ws)
	} else {
		vs := make([]int32, h.NumVertices())
		for v := range vs {
			vs[v] = int32(v)
		}
		eps := bisectionEps(opt.Imbalance, opt.K)
		recursiveBisect(h, vs, 0, opt.K, p.Parts, rng, eps, opt, px, ws)
		// Final k-way polish pass to recover from per-bisection myopia.
		caps := partition.Caps(h.TotalWeight(), opt.K, opt.Imbalance)
		polishStart := time.Now()
		cut := refineKway(h, opt.K, p.Parts, caps, opt.RefinePasses, ws)
		obsPolishNs.ObserveSince(polishStart)
		obsFinalCut.Set(cut)
	}
	return p, nil
}

// directKway runs one multilevel pipeline with k-way coarse solution and
// k-way refinement (the A3 ablation path).
func directKway(h *hypergraph.Hypergraph, rng *rand.Rand, opt Options, out []int32, px *parctx, ws *workspace) {
	coarsenTo := opt.CoarsenTo
	if coarsenTo < 2*opt.K {
		coarsenTo = 2 * opt.K
	}
	levels := coarsen(h, rng, coarsenTo, ws)
	coarsest := levels[len(levels)-1].h

	// Coarse solution: balanced random assignment honoring fixed labels,
	// improved by k-way refinement; multi-start keeps the best. Starts run
	// concurrently with index-derived seeds and are reduced by an
	// index-ordered scan (cut, then total cap overflow, then index), so the
	// winner is the same for every Parallelism value.
	ccaps := partition.Caps(coarsest.TotalWeight(), opt.K, opt.Imbalance)
	type startOut struct {
		parts []int32
		cut   int64
		over  int64
	}
	outs := make([]startOut, opt.InitialStarts)
	baseSeed := rng.Int63()
	solveStart := time.Now()
	px.forEach(opt.InitialStarts, ws, func(s int, sws *workspace) {
		srng := sws.startRNG(startSeed(baseSeed, s))
		parts := randomBalanced(coarsest, opt.K, srng)
		cut := refineKway(coarsest, opt.K, parts, ccaps, opt.RefinePasses*2, sws)
		w := make([]int64, opt.K)
		for v, p := range parts {
			w[p] += coarsest.Weight(v)
		}
		var over int64
		for p := range w {
			if w[p] > ccaps[p] {
				over += w[p] - ccaps[p]
			}
		}
		outs[s] = startOut{parts: parts, cut: cut, over: over}
	})
	obsCoarseSolveNs.ObserveSince(solveStart)
	best := 0
	for s := 1; s < len(outs); s++ {
		if outs[s].cut < outs[best].cut ||
			(outs[s].cut == outs[best].cut && outs[s].over < outs[best].over) {
			best = s
		}
	}
	parts := outs[best].parts
	var cut int64 = -1
	for i := len(levels) - 2; i >= 0; i-- {
		refineStart := time.Now()
		parts = project(levels[i].cmap, parts)
		caps := partition.Caps(levels[i].h.TotalWeight(), opt.K, opt.Imbalance)
		cut = refineKway(levels[i].h, opt.K, parts, caps, opt.RefinePasses, ws)
		obsRefineNs.At(i).ObserveSince(refineStart)
	}
	if cut >= 0 {
		obsFinalCut.Set(cut)
	}
	copy(out, parts)
}

// randomBalanced assigns free vertices in random order, each to the
// lightest part (a balanced start), keeping fixed vertices at their parts.
func randomBalanced(h *hypergraph.Hypergraph, k int, rng *rand.Rand) []int32 {
	parts := make([]int32, h.NumVertices())
	w := make([]int64, k)
	for v := range parts {
		if f := h.Fixed(v); f != hypergraph.Free {
			parts[v] = f
			w[f] += h.Weight(v)
		} else {
			parts[v] = -1
		}
	}
	order := rng.Perm(h.NumVertices())
	for _, v := range order {
		if parts[v] != -1 {
			continue
		}
		// the lightest part, lowest index first
		best := 0
		for p := 1; p < k; p++ {
			if w[p] < w[best] {
				best = p
			}
		}
		parts[v] = int32(best)
		w[best] += h.Weight(v)
	}
	return parts
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
