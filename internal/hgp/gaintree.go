package hgp

import (
	"math/bits"

	"hyperbal/internal/hypergraph"
)

// leafOrder lays out the leaves of a gainTree for one hypergraph level:
// the vertices sorted by (weight, vertex). Whether a move fits a side is
// downward-closed in the vertex weight (see fitsWeight), so the vertices
// that fit are always a prefix of the leaves. It is read-only once built,
// so the coarse solve's concurrent starts share one.
type leafOrder struct {
	vertex []int32 // leaf -> vertex
	weight []int64 // leaf -> its vertex's weight, ascending
	leaf   []int32 // vertex -> leaf
}

// weightOrder builds h's leaf order in ws and returns it. It stays valid
// until the next weightOrder call on ws.
//
// The order is a stable LSD radix sort on weight - min over the vertices
// in vertex order, one byte per pass and as many passes as max - min has
// bytes, so ties stay in vertex order. The leaf array is the sort's second
// buffer until the passes end.
func (ws *workspace) weightOrder(h *hypergraph.Hypergraph) *leafOrder {
	n := h.NumVertices()
	o := &ws.order
	o.vertex = growI32(o.vertex, n)
	o.weight = growI64(o.weight, n)
	o.leaf = growI32(o.leaf, n)
	var lo, hi int64
	if n > 0 {
		lo, hi = h.Weight(0), h.Weight(0)
	}
	for v := range o.vertex {
		o.vertex[v] = int32(v)
		lo, hi = min(lo, h.Weight(v)), max(hi, h.Weight(v))
	}
	var count [256]int
	for shift := 0; shift < bits.Len64(uint64(hi-lo)); shift += 8 {
		clear(count[:])
		for _, v := range o.vertex {
			count[byte(uint64(h.Weight(int(v))-lo)>>shift)]++
		}
		sum := 0
		for b, c := range count {
			count[b] = sum
			sum += c
		}
		for _, v := range o.vertex {
			b := byte(uint64(h.Weight(int(v))-lo) >> shift)
			o.leaf[count[b]] = v
			count[b]++
		}
		o.vertex, o.leaf = o.leaf, o.vertex
	}
	for i, v := range o.vertex {
		o.leaf[v] = int32(i)
		o.weight[i] = h.Weight(int(v))
	}
	return o
}

// within returns how many leaves weigh at most limit.
func (o *leafOrder) within(limit int64) int {
	lo, hi := 0, len(o.weight)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.weight[mid] <= limit {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gainTree is the FM kernels' move-selection structure: a winner tree over
// the leaves of a leafOrder. Node 1 is the root, node i has children 2i and
// 2i+1, and the leaf of vertex v is node n+leaf[v]; every node holds, for
// each side, the best active vertex below it under the kernels' total
// order — gain descending, then vertex ascending — or -1. A vertex is
// active on at most one side. Updates and queries cost O(log n), and an
// inactive vertex leaves no entry behind.
type gainTree struct {
	n    int
	ord  *leafOrder // nil lays the leaves out in vertex order
	gain []int64    // per vertex: the priority of an active vertex
	best [][2]int32 // per node, per side: best active vertex below, or -1
}

// reset empties the tree over n vertices laid out by ord.
func (t *gainTree) reset(n int, ord *leafOrder) {
	t.n, t.ord = n, ord
	t.gain = growI64(t.gain, n)
	size := max(2*n, 2) // node 1 exists even when n == 0
	if cap(t.best) < size {
		t.best = make([][2]int32, size)
	}
	t.best = t.best[:size]
	for i := range t.best {
		t.best[i] = [2]int32{-1, -1}
	}
}

func (t *gainTree) node(v int) int {
	if t.ord == nil {
		return t.n + v
	}
	return t.n + int(t.ord.leaf[v])
}

// better returns the winner of a and b, either of which may be -1.
func (t *gainTree) better(a, b int32) int32 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	if ga, gb := t.gain[a], t.gain[b]; ga > gb || ga == gb && a < b {
		return a
	}
	return b
}

// load activates v on side with the given gain without touching the
// nodes above its leaf; build must run before the next query.
func (t *gainTree) load(v int, side int32, gain int64) {
	t.gain[v] = gain
	t.best[t.node(v)][side] = int32(v)
}

// build recomputes every node above the leaves.
func (t *gainTree) build() {
	for i := t.n - 1; i >= 1; i-- {
		l, r := t.best[2*i], t.best[2*i+1]
		t.best[i] = [2]int32{t.better(l[0], r[0]), t.better(l[1], r[1])}
	}
}

// update activates v on side with the given gain, or changes the gain of
// an active v; v must not be active on the other side. An unchanged gain
// leaves the tree alone.
func (t *gainTree) update(v int, side int32, gain int64) {
	i := t.node(v)
	if t.best[i][side] == int32(v) && t.gain[v] == gain {
		return
	}
	t.gain[v] = gain
	t.best[i][side] = int32(v)
	t.fix(i, side, int32(v))
}

// remove deactivates v, if it is active.
func (t *gainTree) remove(v int) {
	i := t.node(v)
	for side := int32(0); side < 2; side++ {
		if t.best[i][side] == int32(v) {
			t.best[i][side] = -1
			t.fix(i, side, int32(v))
		}
	}
}

// active reports whether v is in the tree.
func (t *gainTree) active(v int) bool {
	b := t.best[t.node(v)]
	return b[0] >= 0 || b[1] >= 0
}

// fix recomputes side's winners above node i after v's leaf changed. A
// node whose winner is unchanged and is not v changes nothing above it.
func (t *gainTree) fix(i int, side int32, v int32) {
	for i >>= 1; i >= 1; i >>= 1 {
		w := t.better(t.best[2*i][side], t.best[2*i+1][side])
		if w == t.best[i][side] && w != v {
			return
		}
		t.best[i][side] = w
	}
}

// top returns side's best active vertex among the first leaves leaves,
// or -1.
func (t *gainTree) top(side int32, leaves int) int32 {
	if leaves >= t.n {
		return t.best[1][side]
	}
	best := int32(-1)
	for l, r := t.n, t.n+leaves; l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			best = t.better(best, t.best[l][side])
			l++
		}
		if r&1 == 1 {
			r--
			best = t.better(best, t.best[r][side])
		}
	}
	return best
}

// topWithin returns side's best active vertex of weight at most limit, or
// -1. The tree must be laid out by a leafOrder.
func (t *gainTree) topWithin(side int32, limit int64) int32 {
	b := t.best[1][side]
	if b < 0 || t.ord.weight[t.ord.leaf[b]] <= limit {
		return b
	}
	return t.top(side, t.ord.within(limit))
}
