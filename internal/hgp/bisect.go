package hgp

import (
	"math/rand"
	"time"

	"hyperbal/internal/hypergraph"
)

// bisect computes a 2-way partition of h with target side-0 weight
// fraction frac0 and per-bisection imbalance eps, using the full
// multilevel pipeline: IPM coarsening, multi-start greedy hypergraph
// growing at the coarsest level, and FM refinement at every level.
// fixedSide maps each vertex to 0, 1, or Free.
//
// The coarsest-level starts run concurrently on px when workers are free.
// Each start draws its RNG from startSeed(baseSeed, s) — a function of the
// start index only — and the winner is chosen by an index-ordered scan
// (lowest cut, then lowest balance deviation, then lowest start index), so
// the result is bit-identical for every Parallelism value.
func bisect(h *hypergraph.Hypergraph, rng *rand.Rand, fixedSide []int32, frac0, eps float64, opt Options, px *parctx, ws *workspace) []int32 {
	hf := h.WithFixed(fixedSide)
	coarsenTo := opt.CoarsenTo
	if coarsenTo < 4 {
		coarsenTo = 4
	}
	levels := coarsen(hf, rng, coarsenTo, opt.MinShrink, opt.MaxNetSize, !opt.DisableMatchFilter, ws)

	// Coarsest-level solve: multi-start GHG + FM, keep the best.
	coarsest := levels[len(levels)-1].h
	ws.levelFixed = fixedLabels(coarsest, ws.levelFixed)
	cFixed := ws.levelFixed
	ctotal := coarsest.TotalWeight()
	ct0 := int64(float64(ctotal) * frac0)
	cc0 := int64(float64(ctotal) * frac0 * (1 + eps))
	cc1 := int64(float64(ctotal) * (1 - frac0) * (1 + eps))
	if cc0 < ct0 {
		cc0 = ct0
	}
	baseSeed := rng.Int63()
	solveStart := time.Now()
	outs := coarseStarts(coarsest, cFixed, ct0, cc0, cc1, baseSeed, opt, px, ws)
	obsCoarseSolveNs.ObserveSince(solveStart)
	best := 0
	for s := 1; s < len(outs); s++ {
		if outs[s].cut < outs[best].cut ||
			(outs[s].cut == outs[best].cut && outs[s].dev < outs[best].dev) {
			best = s
		}
	}
	parts := outs[best].parts

	// Uncoarsen: project and refine at each finer level.
	for i := len(levels) - 2; i >= 0; i-- {
		refineStart := time.Now()
		parts = project(levels[i].cmap, parts)
		ws.levelFixed = fixedLabels(levels[i].h, ws.levelFixed)
		lf := ws.levelFixed
		lt := levels[i].h.TotalWeight()
		lc0 := int64(float64(lt) * frac0 * (1 + eps))
		lc1 := int64(float64(lt) * (1 - frac0) * (1 + eps))
		fm2(levels[i].h, parts, lf, lc0, lc1, opt.RefinePasses, opt.MaxNetSize, ws.weightOrder(levels[i].h), ws)
		obsRefineNs.At(i).ObserveSince(refineStart)
	}
	return parts
}

// startOut is one coarse-solve start's result.
type startOut struct {
	parts []int32
	cut   int64
	dev   int64 // |side-0 weight - target|, the balance tiebreak
}

// coarseStarts runs the coarse solve's opt.InitialStarts starts on h, the
// coarsest level: start s grows a partition by ghg2 from the level's
// shared start state with the generator startSeed(baseSeed, s), and fm2
// refines it from the state ghg2 hands over. t0 is side 0's target
// weight and c0, c1 the side caps.
func coarseStarts(h *hypergraph.Hypergraph, fixedSide []int32, t0, c0, c1, baseSeed int64, opt Options, px *parctx, ws *workspace) []startOut {
	outs := make([]startOut, opt.InitialStarts)
	// One leaf order and one start state per level: the starts share them
	// read-only.
	ord := ws.weightOrder(h)
	st := ws.coarseStart(h, fixedSide, c0, c1, opt.MaxNetSize)
	px.forEach(opt.InitialStarts, ws, func(i int, sws *workspace) {
		s := ghg2(st, sws.startRNG(startSeed(baseSeed, i)), fixedSide, t0, ord, sws)
		cut := fm2From(&s, fixedSide, opt.RefinePasses, ord, sws)
		dev := s.w[0] - t0
		if dev < 0 {
			dev = -dev
		}
		outs[i] = startOut{parts: s.parts, cut: cut, dev: dev}
	})
	st.release()
	return outs
}

// fixedLabels extracts the fixed-side labels of h (Free for unfixed
// vertices) into buf, resized to h's vertices, and returns it.
func fixedLabels(h *hypergraph.Hypergraph, buf []int32) []int32 {
	out := growI32(buf, h.NumVertices())
	for v := range out {
		out[v] = h.Fixed(v)
	}
	return out
}
