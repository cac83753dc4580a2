// Package gaintree is the FM kernels' move-selection structure, shared by
// the hypergraph (hgp) and graph (gp) partitioners: a winner tree over the
// vertices of one level, queried for the best active vertex of a side,
// optionally among those whose weight fits a limit.
//
// The tree orders vertices by gain descending, then vertex ascending. When
// it is laid out by an Order, the leaves are the vertices sorted by (weight,
// vertex), so the vertices of weight at most a limit are a prefix of the
// leaves and TopWithin is a prefix query. A kernel whose move-fit rule is
// downward-closed in the vertex weight therefore selects its move with one
// TopWithin per side.
package gaintree

import "math/bits"

// Order lays out the leaves of a Tree for one level: the vertices sorted by
// (weight, vertex). It is read-only once built, so concurrent kernels on
// one level may share it.
type Order struct {
	vertex []int32 // leaf -> vertex
	weight []int64 // leaf -> its vertex's weight, ascending
	leaf   []int32 // vertex -> leaf
}

// Build lays o out over the vertices of the weight slice w, reusing o's
// arrays. Weights must be non-negative.
//
// The order is a stable LSD radix sort on weight - min over the vertices
// in vertex order, one byte per pass and as many passes as max - min has
// bytes, so ties stay in vertex order. The leaf array is the sort's second
// buffer until the passes end.
func (o *Order) Build(w []int64) {
	n := len(w)
	o.vertex = grow(o.vertex, n)
	o.weight = grow(o.weight, n)
	o.leaf = grow(o.leaf, n)
	var lo, hi int64
	if n > 0 {
		lo, hi = w[0], w[0]
	}
	for v := range o.vertex {
		o.vertex[v] = int32(v)
		lo, hi = min(lo, w[v]), max(hi, w[v])
	}
	var count [256]int
	for shift := 0; shift < bits.Len64(uint64(hi-lo)); shift += 8 {
		clear(count[:])
		for _, v := range o.vertex {
			count[byte(uint64(w[v]-lo)>>shift)]++
		}
		sum := 0
		for b, c := range count {
			count[b] = sum
			sum += c
		}
		for _, v := range o.vertex {
			b := byte(uint64(w[v]-lo) >> shift)
			o.leaf[count[b]] = v
			count[b]++
		}
		o.vertex, o.leaf = o.leaf, o.vertex
	}
	for i, v := range o.vertex {
		o.leaf[v] = int32(i)
		o.weight[i] = w[v]
	}
}

// within returns how many leaves weigh at most limit.
func (o *Order) within(limit int64) int {
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

// Tree is a winner tree over the leaves of an Order. Node 1 is the root,
// node i has children 2i and 2i+1, and the leaf of vertex v is node
// n+leaf[v]; every node holds, for each side, the best active vertex below
// it — gain descending, then vertex ascending — or -1. A vertex is active
// on at most one side. Updates and queries cost O(log n), and an inactive
// vertex leaves no entry behind.
type Tree struct {
	n    int
	ord  *Order     // nil lays the leaves out in vertex order
	gain []int64    // per vertex: the priority of an active vertex
	best [][2]int32 // per node, per side: best active vertex below, or -1
}

// Reset empties the tree over n vertices laid out by ord.
func (t *Tree) Reset(n int, ord *Order) {
	t.n, t.ord = n, ord
	t.gain = grow(t.gain, n)
	size := max(2*n, 2) // node 1 exists even when n == 0
	if cap(t.best) < size {
		t.best = make([][2]int32, size)
	}
	t.best = t.best[:size]
	for i := range t.best {
		t.best[i] = [2]int32{-1, -1}
	}
}

func (t *Tree) node(v int) int {
	if t.ord == nil {
		return t.n + v
	}
	return t.n + int(t.ord.leaf[v])
}

// Gain returns the priority v was last given.
func (t *Tree) Gain(v int) int64 { return t.gain[v] }

// Better returns the winner of a and b, either of which may be -1.
func (t *Tree) Better(a, b int32) int32 {
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

// Load activates v on side with the given gain without touching the nodes
// above its leaf; Build must run before the next query.
func (t *Tree) Load(v int, side int32, gain int64) {
	t.gain[v] = gain
	t.best[t.node(v)][side] = int32(v)
}

// Build recomputes every node above the leaves.
func (t *Tree) Build() {
	for i := t.n - 1; i >= 1; i-- {
		l, r := t.best[2*i], t.best[2*i+1]
		t.best[i] = [2]int32{t.Better(l[0], r[0]), t.Better(l[1], r[1])}
	}
}

// Update activates v on side with the given gain, or changes the gain of
// an active v; v must not be active on the other side. An unchanged gain
// leaves the tree alone.
func (t *Tree) Update(v int, side int32, gain int64) {
	i := t.node(v)
	if t.best[i][side] == int32(v) && t.gain[v] == gain {
		return
	}
	t.gain[v] = gain
	t.best[i][side] = int32(v)
	t.fix(i, side, int32(v))
}

// Remove deactivates v, if it is active.
func (t *Tree) Remove(v int) {
	i := t.node(v)
	for side := int32(0); side < 2; side++ {
		if t.best[i][side] == int32(v) {
			t.best[i][side] = -1
			t.fix(i, side, int32(v))
		}
	}
}

// Active reports whether v is in the tree.
func (t *Tree) Active(v int) bool {
	b := t.best[t.node(v)]
	return b[0] >= 0 || b[1] >= 0
}

// fix recomputes side's winners above node i after v's leaf changed. A
// node whose winner is unchanged and is not v changes nothing above it.
func (t *Tree) fix(i int, side int32, v int32) {
	for i >>= 1; i >= 1; i >>= 1 {
		w := t.Better(t.best[2*i][side], t.best[2*i+1][side])
		if w == t.best[i][side] && w != v {
			return
		}
		t.best[i][side] = w
	}
}

// Top returns side's best active vertex, or -1.
func (t *Tree) Top(side int32) int32 { return t.best[1][side] }

// TopWithin returns side's best active vertex of weight at most limit, or
// -1. The tree must be laid out by an Order.
func (t *Tree) TopWithin(side int32, limit int64) int32 {
	b := t.best[1][side]
	if b < 0 || t.ord.weight[t.ord.leaf[b]] <= limit {
		return b
	}
	best := int32(-1)
	for l, r := t.n, t.n+t.ord.within(limit); l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			best = t.Better(best, t.best[l][side])
			l++
		}
		if r&1 == 1 {
			r--
			best = t.Better(best, t.best[r][side])
		}
	}
	return best
}

// grow returns s resized to n, reallocating only on growth. Contents are
// unspecified; callers must initialize what they read.
func grow[T int32 | int64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
