package hgp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hyperbal/internal/datasets"
	"hyperbal/internal/hypergraph"
)

// This file keeps the 2-way move-selection kernels as they were before
// the winner tree replaced the lazy gain heap — refFM2 and refGHG2, with
// the heap, its stamps, fm2's re-push stash and ghg2's dead marks — as
// test oracles. The live kernels must reproduce them move for move: the
// same parts, the same cut and, for ghg2, the same RNG draws. The only
// edits are renaming and dropping the metric counters.

// oracleInstances is the number of randomized instances per kernel.
const oracleInstances = 520

var (
	oracleEps      = []float64{0, 0.01, 0.05, 0.2}
	oracleMaxNets  = []int{3, 5, 500}
	oracleFraction = []float64{0.5, 0.5, 0.37, 0.62}
)

// oracleHG builds a random hypergraph mixing unit, zero-weight and heavy
// (10–60×) vertices with narrow nets and a share of nets wider than the
// smaller MaxNetSize settings.
func oracleHG(rng *rand.Rand) *hypergraph.Hypergraph {
	n := 6 + rng.Intn(120)
	b := hypergraph.NewBuilder(n)
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
	nets := n/2 + rng.Intn(2*n)
	for i := 0; i < nets; i++ {
		sz := 2 + rng.Intn(3)
		if rng.Intn(6) == 0 {
			sz = 6 + rng.Intn(10)
		}
		sz = min(sz, n)
		b.AddNet(int64(1+rng.Intn(3)), rng.Perm(n)[:sz]...)
	}
	return b.Build()
}

// oracleSides draws side labels: about a tenth of the vertices fixed to
// each side, the rest Free.
func oracleSides(rng *rand.Rand, n int) []int32 {
	fixed := make([]int32, n)
	for v := range fixed {
		switch r := rng.Intn(10); r {
		case 0, 1:
			fixed[v] = int32(r)
		default:
			fixed[v] = hypergraph.Free
		}
	}
	return fixed
}

// bisectCaps mirrors bisect's coarse-level target and caps.
func bisectCaps(h *hypergraph.Hypergraph, frac0, eps float64) (t0, c0, c1 int64) {
	total := h.TotalWeight()
	t0 = int64(float64(total) * frac0)
	c0 = max(int64(float64(total)*frac0*(1+eps)), t0)
	c1 = int64(float64(total) * (1 - frac0) * (1 + eps))
	return t0, c0, c1
}

func TestGHG2Oracle(t *testing.T) {
	ws, rws, rs := new(workspace), new(workspace), new(refScratch)
	for i := 0; i < oracleInstances; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		h := oracleHG(rng)
		fixed := oracleSides(rng, h.NumVertices())
		t0, c0, c1 := bisectCaps(h, oracleFraction[i%4], oracleEps[i/4%4])
		maxNet := oracleMaxNets[i/16%3]
		seed := rng.Int63()
		checkGHG2(t, fmt.Sprintf("instance %d", i), h, fixed, t0, c0, c1, maxNet, seed, ws, rws, rs)
	}
}

func checkGHG2(t *testing.T, name string, h *hypergraph.Hypergraph, fixed []int32, t0, c0, c1 int64, maxNet int, seed int64, ws, rws *workspace, rs *refScratch) []int32 {
	t.Helper()
	rngWant := rand.New(rand.NewSource(seed))
	rngGot := rand.New(rand.NewSource(seed))
	want := refGHG2(h, rngWant, fixed, t0, c0, c1, maxNet, rws, rs)
	got := ghg2Fresh(h, rngGot, fixed, t0, c0, c1, maxNet, ws)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: ghg2 parts differ from the reference kernel", name)
	}
	if g, w := rngGot.Int63(), rngWant.Int63(); g != w {
		t.Fatalf("%s: ghg2 drew a different RNG sequence", name)
	}
	return want
}

func TestFM2Oracle(t *testing.T) {
	ws, rws, rs := new(workspace), new(workspace), new(refScratch)
	for i := 0; i < oracleInstances; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		h := oracleHG(rng)
		n := h.NumVertices()
		fixed := oracleSides(rng, n)
		t0, c0, c1 := bisectCaps(h, oracleFraction[i%4], oracleEps[i/4%4])
		maxNet := oracleMaxNets[i/16%3]
		var parts []int32
		if i%2 == 0 {
			// A random start: sides far over their caps exercise the
			// rescue rule.
			parts = make([]int32, n)
			for v := range parts {
				parts[v] = int32(rng.Intn(2))
				if fixed[v] != hypergraph.Free {
					parts[v] = fixed[v]
				}
			}
		} else {
			parts = refGHG2(h, rand.New(rand.NewSource(rng.Int63())), fixed, t0, c0, c1, maxNet, rws, rs)
		}
		checkFM2(t, fmt.Sprintf("instance %d", i), h, parts, fixed, c0, c1, 1+rng.Intn(4), maxNet, ws, rws, rs)
	}
}

func checkFM2(t *testing.T, name string, h *hypergraph.Hypergraph, parts, fixed []int32, c0, c1 int64, passes, maxNet int, ws, rws *workspace, rs *refScratch) {
	t.Helper()
	want := append([]int32(nil), parts...)
	got := append([]int32(nil), parts...)
	wantCut := refFM2(h, want, fixed, c0, c1, passes, maxNet, rws, rs)
	gotCut := fm2(h, got, fixed, c0, c1, passes, maxNet, ws.weightOrder(h), ws)
	if gotCut != wantCut || !slices.Equal(got, want) {
		t.Fatalf("%s: fm2 cut %d differs from the reference kernel's %d, or its parts do", name, gotCut, wantCut)
	}
}

// TestDatasetCoarseOracle runs the two kernels against their references
// on the coarsest level of each dataset analogue's first bisection: every
// start of the coarse solve, through bisect's own coarseStarts at
// Parallelism 1 and 4 (ghg2 from the shared start, then fm2 on the state it
// hands over), against refGHG2 then refFM2. The coarse solve runs free and
// with fixed sides (coarseOracleSides). Its two skips must both be
// exercised: some instance grows without drawing, and among those that
// draw, some grow a partition twice and some grow two or more distinct
// partitions.
func TestDatasetCoarseOracle(t *testing.T) {
	ws, rws, rs := new(workspace), new(workspace), new(refScratch)
	var drawFree, duplicated, distinct int
	for _, ds := range datasets.Names() {
		coarsest, rng := firstBisectionCoarsest(t, ds, kernelBenchScale, 1)
		t0, c0, c1 := bisectCaps(coarsest, 0.5, 0.05)
		baseSeed := rng.Int63()
		for _, k := range []int{0, 2, 8} {
			fixed := coarseOracleSides(coarsest, k)
			drew, grown := grownStarts(t, coarsest, fixed, t0, c0, c1, baseSeed, ws)
			if !drew {
				drawFree++
			}
			if drew && grown < InitialStarts {
				duplicated++
			}
			if drew && grown >= 2 {
				distinct++
			}
			sides := "free"
			if k > 0 {
				sides = fmt.Sprintf("%d-way fixed", k)
			}
			for _, par := range []int{1, 4} {
				name := fmt.Sprintf("%s %s, Parallelism %d", ds, sides, par)
				outs := coarseStarts(coarsest, fixed, t0, c0, c1, baseSeed, newParctx(par), ws)
				for s, out := range outs {
					want := refGHG2(coarsest, rand.New(rand.NewSource(startSeed(baseSeed, s))), fixed, t0, c0, c1, MaxNetSize, rws, rs)
					wantCut := refFM2(coarsest, want, fixed, c0, c1, RefinePasses, MaxNetSize, rws, rs)
					if out.cut != wantCut || !slices.Equal(out.parts, want) {
						t.Fatalf("%s start %d: coarse-solve cut %d differs from the reference kernels' %d, or its parts do", name, s, out.cut, wantCut)
					}
				}
			}
		}
	}
	if drawFree == 0 || duplicated == 0 || distinct == 0 {
		t.Errorf("instances: %d grow without drawing, %d drawing grow a partition twice, %d drawing grow two or more; want each > 0", drawFree, duplicated, distinct)
	}
}

// coarseOracleSides fixes every 13th vertex of h round-robin over k parts,
// as goldenFixed does, and folds the parts to sides as recursive bisection
// does: the first k/2 parts to side 0. k = 0 leaves every vertex Free.
func coarseOracleSides(h *hypergraph.Hypergraph, k int) []int32 {
	fixed := make([]int32, h.NumVertices())
	for v := range fixed {
		fixed[v] = hypergraph.Free
		if k > 0 && v%13 == 0 {
			fixed[v] = 0
			if v/13%k >= k/2 {
				fixed[v] = 1
			}
		}
	}
	return fixed
}

// grownStarts runs ghg2 for every start of a coarse solve on h and returns
// whether the starts drew and how many distinct partitions they grew. The
// starts must agree on drawing, and starts that drew nothing must all grow
// one partition.
func grownStarts(t *testing.T, h *hypergraph.Hypergraph, fixed []int32, t0, c0, c1, baseSeed int64, ws *workspace) (drew bool, distinct int) {
	t.Helper()
	var grown [][]int32
	for s := 0; s < InitialStarts; s++ {
		st, sDrew := ghg2(ws.coarseStart(h, fixed, c0, c1, MaxNetSize), ws.startRNG(startSeed(baseSeed, s)), fixed, t0, ws.weightOrder(h), ws)
		if s == 0 {
			drew = sDrew
		} else if sDrew != drew {
			t.Fatalf("start %d drew %v, start 0 %v", s, sDrew, drew)
		}
		if !slices.ContainsFunc(grown, func(p []int32) bool { return slices.Equal(p, st.parts) }) {
			grown = append(grown, st.parts)
		}
	}
	if !drew && len(grown) != 1 {
		t.Fatalf("%d starts grew without drawing, %d distinct partitions", InitialStarts, len(grown))
	}
	return drew, len(grown)
}

// refScratch is the reference kernels' own heap and marks.
type refScratch struct {
	heap   refHeap
	stash  []refEntry
	dead   []bool
	inHeap []bool
}

// refFM2 is fm2 before the winner tree: a lazy heap popped in (gain desc,
// vertex asc) order, with vertices that do not fit stashed and pushed back
// after every move.
func refFM2(h *hypergraph.Hypergraph, parts []int32, fixedSide []int32, cap0, cap1 int64, maxPasses, maxNetSize int, ws *workspace, rs *refScratch) int64 {
	n := h.NumVertices()
	var s bisectState
	s.init(h, parts, cap0, cap1, maxNetSize, ws.pins0)
	bestCut := s.Cut()

	moved := growI32(ws.moved, n)[:0] // move order within a pass, for rollback
	ws.locked = growBool(ws.locked, n)
	locked := ws.locked
	gh := &rs.heap
	stash := rs.stash[:0]

	for pass := 0; pass < maxPasses; pass++ {
		gh.reset(n)
		for v := 0; v < n; v++ {
			locked[v] = false
			if fixedSide[v] == hypergraph.Free {
				gh.update(v, s.gain(v))
			}
		}
		moved = moved[:0]
		curCut := s.Cut()
		passStartCut := curCut
		bestPrefix := 0
		bestPrefixCut := curCut
		sinceBest := 0
		limit := n/20 + 50

		stash = stash[:0]
		for {
			e, ok := gh.popLive()
			if !ok {
				break
			}
			v := int(e.v)
			if locked[v] {
				continue
			}
			if !refFits(&s, v) {
				stash = append(stash, e)
				continue
			}
			// reinsert balance-skipped entries: the weights changed contexts
			for _, se := range stash {
				if !locked[se.v] {
					gh.update(int(se.v), se.gain)
				}
			}
			stash = stash[:0]

			g := s.gain(v) // exact gain (heap entry may be approximate for huge nets)
			s.move(v, nil)
			locked[v] = true
			moved = append(moved, int32(v))
			curCut -= g
			if curCut < bestPrefixCut {
				bestPrefixCut = curCut
				bestPrefix = len(moved)
				sinceBest = 0
			} else {
				sinceBest++
				if sinceBest > limit {
					break
				}
			}
			// refresh gains of unlocked neighbors
			for _, nn := range h.Nets(v) {
				pins := h.Pins(int(nn))
				if len(pins) > maxNetSize {
					continue
				}
				for _, p := range pins {
					u := int(p)
					if !locked[u] && fixedSide[u] == hypergraph.Free {
						gh.update(u, s.gain(u))
					}
				}
			}
		}
		// roll back to the best prefix
		for i := len(moved) - 1; i >= bestPrefix; i-- {
			s.move(int(moved[i]), nil)
		}
		if bestPrefixCut >= passStartCut {
			break // no improvement this pass
		}
		bestCut = bestPrefixCut
	}
	_ = bestCut
	ws.moved = moved
	rs.stash = stash
	return s.Cut()
}

// refFits is bisectState's move test before fitsWeight took over.
func refFits(s *bisectState, v int) bool {
	from := s.parts[v]
	to := 1 - from
	w := s.h.Weight(v)
	if s.w[to]+w <= s.cap[to] {
		return true
	}
	// rescue: source side is over cap and the move strictly reduces the
	// total overflow.
	overBefore := over(s.w[0], s.cap[0]) + over(s.w[1], s.cap[1])
	overAfter := over(s.w[from]-w, s.cap[from]) + over(s.w[to]+w, s.cap[to])
	return overBefore > 0 && overAfter < overBefore
}

// refGHG2 is ghg2 before the winner tree.
func refGHG2(h *hypergraph.Hypergraph, rng *rand.Rand, fixedSide []int32, target0, cap0, cap1 int64, maxNetSize int, ws *workspace, rs *refScratch) []int32 {
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
	s.init(h, parts, cap0, cap1, maxNetSize, ws.pins0)

	gh := &rs.heap
	gh.reset(n)
	rs.inHeap = growBool(rs.inHeap, n)
	inHeap := rs.inHeap
	// dead marks vertices that can no longer fit side 0; since side 0 only
	// grows, a vertex that overfills once overfills forever.
	rs.dead = growBool(rs.dead, n)
	dead := rs.dead
	seed := func() bool {
		// find a random movable vertex on side 1 to restart growth
		start := rng.Intn(n)
		for i := 0; i < n; i++ {
			v := (start + i) % n
			if parts[v] == 1 && fixedSide[v] != 1 && !inHeap[v] && !dead[v] {
				gh.update(v, s.gain(v))
				inHeap[v] = true
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
				if parts[u] == 1 && fixedSide[u] != 1 && !inHeap[u] {
					gh.update(u, s.gain(u))
					inHeap[u] = true
					seeded = true
				}
			}
			if seeded {
				break
			}
		}
	}
	if !seeded {
		seeded = seed()
	}

	for s.w[0] < target0 {
		e, ok := gh.popLive()
		if !ok {
			if !seed() {
				break // nothing left to grow
			}
			continue
		}
		v := int(e.v)
		inHeap[v] = false
		if parts[v] != 1 || fixedSide[v] == 1 {
			continue
		}
		if s.w[0]+h.Weight(v) > cap0 {
			dead[v] = true
			continue // would overfill side 0; try next best
		}
		s.move(v, nil)
		// enqueue/refresh neighbors on side 1
		for _, nn := range h.Nets(v) {
			pins := h.Pins(int(nn))
			if len(pins) > maxNetSize {
				continue
			}
			for _, p := range pins {
				u := int(p)
				if parts[u] == 1 && fixedSide[u] != 1 {
					gh.update(u, s.gain(u))
					inHeap[u] = true
				}
			}
		}
	}
	return parts
}

// refEntry is one (vertex, gain) record of refHeap; stale entries are
// detected by stamp comparison.
type refEntry struct {
	v     int32
	gain  int64
	stamp uint32
}

// refHeap is the lazy max-heap the reference kernels select from: pops come
// out in (gain desc, vertex asc) order over live entries.
type refHeap struct {
	entries []refEntry
	stamp   []uint32 // current stamp per vertex
}

func (g *refHeap) reset(n int) {
	g.entries = g.entries[:0]
	if cap(g.stamp) < n {
		g.stamp = make([]uint32, n)
		return
	}
	g.stamp = g.stamp[:n]
	clear(g.stamp)
}

func (g *refHeap) less(i, j int) bool {
	if g.entries[i].gain != g.entries[j].gain {
		return g.entries[i].gain > g.entries[j].gain
	}
	return g.entries[i].v < g.entries[j].v
}

func (g *refHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !g.less(i, parent) {
			break
		}
		g.entries[i], g.entries[parent] = g.entries[parent], g.entries[i]
		i = parent
	}
}

func (g *refHeap) down(i int) {
	n := len(g.entries)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && g.less(r, l) {
			best = r
		}
		if !g.less(best, i) {
			break
		}
		g.entries[i], g.entries[best] = g.entries[best], g.entries[i]
		i = best
	}
}

// update (re)inserts v with the given gain, invalidating earlier entries.
func (g *refHeap) update(v int, gain int64) {
	g.stamp[v]++
	g.entries = append(g.entries, refEntry{v: int32(v), gain: gain, stamp: g.stamp[v]})
	g.up(len(g.entries) - 1)
}

// popLive removes and returns the best live entry, or ok=false when the
// heap is exhausted.
func (g *refHeap) popLive() (refEntry, bool) {
	for len(g.entries) > 0 {
		e := g.entries[0]
		last := len(g.entries) - 1
		g.entries[0] = g.entries[last]
		g.entries = g.entries[:last]
		if last > 0 {
			g.down(0)
		}
		if e.stamp == g.stamp[e.v] {
			return e, true
		}
	}
	return refEntry{}, false
}
