package hgp

import (
	"math/rand"
	"slices"
	"sync"
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
//
// Each distinct grown partition is refined once. From the shared start,
// ghg2's partition depends only on its draws and fm2From's result only on
// its partition, so a start that grows a partition another start
// registered takes that start's result, and once a start has grown without
// drawing, every start not yet grown takes its result without growing.
// Starts that share a result share its partition slice.
func coarseStarts(h *hypergraph.Hypergraph, fixedSide []int32, t0, c0, c1, baseSeed int64, opt Options, px *parctx, ws *workspace) []startOut {
	outs := make([]startOut, opt.InitialStarts)
	// One leaf order and one start state per level: the starts share them
	// read-only.
	ord := ws.weightOrder(h)
	st := ws.coarseStart(h, fixedSide, c0, c1, opt.MaxNetSize)
	reg := ws.startRegistry(opt.InitialStarts, h.NumVertices())
	px.forEach(opt.InitialStarts, ws, func(i int, sws *workspace) {
		if reg.settled(i) {
			return
		}
		s, drew := ghg2(st, sws.startRNG(startSeed(baseSeed, i)), fixedSide, t0, ord, sws)
		if !reg.claim(i, s.parts, drew) {
			return
		}
		cut := fm2From(&s, fixedSide, opt.RefinePasses, ord, sws)
		dev := s.w[0] - t0
		if dev < 0 {
			dev = -dev
		}
		outs[i] = startOut{parts: s.parts, cut: cut, dev: dev}
	})
	for i, o := range reg.owner {
		outs[i] = outs[o]
	}
	st.release()
	return outs
}

// startRegistry is one coarse solve's record of the partitions its starts
// grew: a copy of each distinct one (fm2From refines the start's own in
// place) and the start that owns it, which alone refines it. The starts
// share it under mu.
type startRegistry struct {
	mu       sync.Mutex
	grown    []int32 // arena: registered partition j at [j*n, (j+1)*n)
	owners   []int32 // registered partition j's owner
	drawFree int32   // the owner of a partition grown without a draw, or -1
	owner    []int32 // per start: the start whose result it takes
}

// startRegistry empties ws's registry for a solve of starts starts on a
// level of n vertices and returns it. It stays valid until the next
// startRegistry call on ws.
func (ws *workspace) startRegistry(starts, n int) *startRegistry {
	r := &ws.starts
	r.grown = growI32(r.grown, starts*n)
	r.owners = r.owners[:0]
	r.drawFree = -1
	r.owner = growI32(r.owner, starts)
	return r
}

// settled reports whether start i can skip growing: a start grew without
// drawing, so i would grow that start's partition. i then takes its
// owner's result.
func (r *startRegistry) settled(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.drawFree < 0 {
		return false
	}
	r.owner[i] = r.drawFree
	return true
}

// claim looks start i's grown partition up among the registered ones and
// registers it if it is new. It reports whether i owns it and must refine
// it; otherwise i takes the owner's result. drew is ghg2's report.
func (r *startRegistry) claim(i int, parts []int32, drew bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, o := len(parts), int32(i)
	for j, owner := range r.owners {
		if slices.Equal(r.grown[j*n:(j+1)*n], parts) {
			o = owner
			break
		}
	}
	if o == int32(i) {
		copy(r.grown[len(r.owners)*n:], parts)
		r.owners = append(r.owners, o)
	}
	if !drew {
		r.drawFree = o
	}
	r.owner[i] = o
	return o == int32(i)
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
