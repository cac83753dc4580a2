package hgp

import (
	"math/rand"
	"sync"

	"hyperbal/internal/gaintree"
	"hyperbal/internal/hypergraph"
)

// workspace holds the scratch arenas of one multilevel-pipeline worker:
// matching, contraction, and refinement buffers that would otherwise be
// reallocated at every level of every bisection. All fields grow lazily
// and are reused across levels, starts, and bisections, so the hot path
// allocates only the arrays that outlive a call (the coarse hypergraphs,
// cmaps, and partitions themselves). A workspace is owned by exactly one
// goroutine at a time; wsPool recycles them across Partition calls.
type workspace struct {
	// ipmMatch
	score   []float64
	touched []int32
	match   []int32

	// contract
	cmark  []bool  // per-coarse-vertex dedup marks (always restored to false)
	pinBuf []int32 // coarse pins of the net being built
	htab   []int32 // open-addressing table: coarse net id or -1

	// 2-way state (ghg2 / fm2)
	pins0  []int32
	gains  []int64 // per vertex: 2-way gain, kept exact by bisectState.move
	locked []bool
	moved  []int32
	order  gaintree.Order // the level's gain-tree leaves (weightOrder)
	start  coarseStart    // the coarse solve's shared ghg2 start (coarseStart)
	starts startRegistry  // the coarse solve's grown partitions (startRegistry)

	// FM move selection (ghg2 / fm2)
	tree gaintree.Tree

	// k-way state (refineKway)
	kstate KwayState

	// recursive bisection
	fixedSide  []int32
	newID      []int32
	levelFixed []int32 // the fixed sides of the level bisect is at

	rng *rand.Rand // the coarse solve's per-start generator (startRNG)
}

// wsPool recycles workspaces across Partition calls and across the worker
// goroutines of one call. Workspace contents never influence results:
// every kernel fully (re)initializes the state it reads.
var wsPool = sync.Pool{New: func() any { return new(workspace) }}

func newWorkspace() *workspace { return new(workspace) }

// startRNG returns the workspace's generator re-seeded with seed: the
// stream of rand.New(rand.NewSource(seed)) without allocating a source per
// coarse start. It stays valid until the next startRNG call on ws.
func (ws *workspace) startRNG(seed int64) *rand.Rand {
	if ws.rng == nil {
		ws.rng = rand.New(rand.NewSource(seed))
	} else {
		ws.rng.Seed(seed)
	}
	return ws.rng
}

// weightOrder builds h's gain-tree leaf order in ws and returns it. It
// stays valid until the next weightOrder call on ws.
func (ws *workspace) weightOrder(h *hypergraph.Hypergraph) *gaintree.Order {
	ws.order.Build(h.Weights())
	return &ws.order
}

// growI32 returns s resized to n, reallocating only on growth. Contents
// are unspecified; callers must initialize what they read.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// growI64 is growI32 for int64 slices.
func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// growF64Zero returns s resized to n, zeroing only fresh allocations. It
// relies on the caller maintaining the restore-to-zero invariant (every
// touched entry is reset before the call returns), which makes repeated
// use O(touched) instead of O(n).
func growF64Zero(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growBool returns s resized to n with every entry false.
func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// kwayState (re)initializes the workspace's k-way refinement state for
// the given hypergraph and partition, reusing its arrays. The returned
// state aliases ws and is valid until the next kwayState call.
func (ws *workspace) kwayState(h *hypergraph.Hypergraph, k int, parts []int32) *KwayState {
	s := &ws.kstate
	s.h, s.k, s.parts = h, k, parts
	s.pinCount = growI32(s.pinCount, h.NumNets()*k)
	clear(s.pinCount)
	s.lambda = growI32(s.lambda, h.NumNets())
	clear(s.lambda)
	s.w = growI64(s.w, k)
	clear(s.w)
	s.cands = growI32(s.cands, k)[:0]
	s.mark = growBool(s.mark, k)
	s.accumulate()
	return s
}

// release drops the state's references to caller data so pooled
// workspaces do not keep large hypergraphs alive.
func (s *KwayState) release() {
	s.h = nil
	s.parts = nil
}
