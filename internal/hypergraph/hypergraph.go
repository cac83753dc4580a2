// Package hypergraph provides the core hypergraph data structure used
// throughout hyperbal: a compressed sparse (CSR-like) representation of a
// hypergraph H = (V, N) with vertex weights, vertex data sizes, net costs,
// and optional fixed-vertex labels for partitioning with fixed vertices.
//
// The representation stores pins in both directions: net -> vertices and
// vertex -> nets, so that partitioners can iterate either way in O(pins).
package hypergraph

import (
	"fmt"
	"slices"
)

// Free marks a vertex that is not fixed to any part.
const Free int32 = -1

// Hypergraph is an immutable-after-Finalize hypergraph.
//
// Vertices and nets are identified by dense indices [0, NumVertices()) and
// [0, NumNets()). Pins are stored CSR-style in both directions. Vertex
// weights model computational load; vertex sizes model the amount of data
// that must move if the vertex migrates; net costs model the size of the
// data item communicated along the net (scaled by the caller as needed).
type Hypergraph struct {
	// net -> pins CSR
	netStart []int32 // len = numNets+1
	netPins  []int32 // len = numPins, vertex ids

	// vertex -> nets CSR (built by Finalize)
	vtxStart []int32 // len = numVertices+1
	vtxNets  []int32 // len = numPins, net ids

	weights []int64 // vertex computational weights, len = numVertices
	sizes   []int64 // vertex migration data sizes, len = numVertices
	costs   []int64 // net communication costs, len = numNets

	fixed []int32 // fixed part per vertex or Free; nil means all free

	finalized bool
}

// Builder incrementally constructs a Hypergraph. Not safe for concurrent use.
type Builder struct {
	numVertices int
	weights     []int64
	sizes       []int64
	fixed       []int32
	hasFixed    bool

	netStart []int32
	netPins  []int32
	costs    []int64

	// seen[p] == net+1 while AddNet adds net: pin p is already in it.
	seen []int32
}

// NewBuilder creates a builder for a hypergraph with n vertices, all with
// unit weight and unit size, and no nets.
func NewBuilder(n int) *Builder {
	b := &Builder{
		numVertices: n,
		weights:     make([]int64, n),
		sizes:       make([]int64, n),
		fixed:       make([]int32, n),
		netStart:    []int32{0},
	}
	for i := range b.weights {
		b.weights[i] = 1
		b.sizes[i] = 1
		b.fixed[i] = Free
	}
	return b
}

// SetWeight sets the computational weight of vertex v.
func (b *Builder) SetWeight(v int, w int64) { b.weights[v] = w }

// SetSize sets the migration data size of vertex v.
func (b *Builder) SetSize(v int, s int64) { b.sizes[v] = s }

// Fix pins vertex v to part p for partitioning with fixed vertices.
func (b *Builder) Fix(v int, p int) {
	b.fixed[v] = int32(p)
	b.hasFixed = true
}

// AddNet appends a net with the given cost over the given vertices and
// returns its index. Duplicate pins within a net are removed.
func (b *Builder) AddNet(cost int64, pins ...int) int {
	if b.seen == nil {
		b.seen = make([]int32, b.numVertices)
	}
	mark := int32(len(b.costs) + 1)
	for _, p := range pins {
		if p < 0 || p >= b.numVertices {
			panic(fmt.Sprintf("hypergraph: pin %d out of range [0,%d)", p, b.numVertices))
		}
		if b.seen[p] == mark {
			continue
		}
		b.seen[p] = mark
		b.netPins = append(b.netPins, int32(p))
	}
	b.netStart = append(b.netStart, int32(len(b.netPins)))
	b.costs = append(b.costs, cost)
	return len(b.costs) - 1
}

// AddNetInt32 is AddNet for an existing []int32 pin list (no copy of the
// caller's slice is retained). Duplicates must already be removed.
func (b *Builder) AddNetInt32(cost int64, pins []int32) int {
	b.netPins = append(b.netPins, pins...)
	b.netStart = append(b.netStart, int32(len(b.netPins)))
	b.costs = append(b.costs, cost)
	return len(b.costs) - 1
}

// FromCSR constructs a finalized hypergraph directly from prebuilt CSR
// arrays, taking ownership of every slice: netStart must hold one offset
// per net plus the trailing total pin count, netPins the concatenated
// dedup-free pin lists, and weights/sizes one entry per vertex. fixed may
// be nil for an all-free hypergraph. This is the fast path for kernels
// (contraction, sub-hypergraph induction) that already produce CSR form
// and would otherwise re-copy every pin through a Builder. Only the
// vertex->net CSR is derived; callers feeding untrusted data should use
// Builder or call Validate.
func FromCSR(netStart, netPins []int32, costs, weights, sizes []int64, fixed []int32) *Hypergraph {
	h := &Hypergraph{
		netStart: netStart,
		netPins:  netPins,
		weights:  weights,
		sizes:    sizes,
		costs:    costs,
		fixed:    fixed,
	}
	h.buildVertexCSR(len(weights))
	h.finalized = true
	return h
}

// Build finalizes the hypergraph, constructing the vertex->net CSR.
func (b *Builder) Build() *Hypergraph {
	h := &Hypergraph{
		netStart: b.netStart,
		netPins:  b.netPins,
		weights:  b.weights,
		sizes:    b.sizes,
		costs:    b.costs,
	}
	if b.hasFixed {
		h.fixed = b.fixed
	}
	h.buildVertexCSR(b.numVertices)
	h.finalized = true
	return h
}

func (h *Hypergraph) buildVertexCSR(numVertices int) {
	deg := make([]int32, numVertices+1)
	for _, v := range h.netPins {
		deg[v+1]++
	}
	for i := 1; i <= numVertices; i++ {
		deg[i] += deg[i-1]
	}
	h.vtxStart = deg
	h.vtxNets = make([]int32, len(h.netPins))
	cursor := make([]int32, numVertices)
	for n := 0; n < len(h.netStart)-1; n++ {
		for _, v := range h.netPins[h.netStart[n]:h.netStart[n+1]] {
			h.vtxNets[h.vtxStart[v]+cursor[v]] = int32(n)
			cursor[v]++
		}
	}
}

// NumVertices returns |V|.
func (h *Hypergraph) NumVertices() int { return len(h.weights) }

// NumNets returns |N|.
func (h *Hypergraph) NumNets() int { return len(h.costs) }

// NumPins returns the total number of pins (sum of net sizes).
func (h *Hypergraph) NumPins() int { return len(h.netPins) }

// Pins returns the vertices of net n. The returned slice aliases internal
// storage and must not be modified.
func (h *Hypergraph) Pins(n int) []int32 {
	return h.netPins[h.netStart[n]:h.netStart[n+1]]
}

// NetSize returns the number of pins of net n.
func (h *Hypergraph) NetSize(n int) int {
	return int(h.netStart[n+1] - h.netStart[n])
}

// Nets returns the nets incident to vertex v. The returned slice aliases
// internal storage and must not be modified.
func (h *Hypergraph) Nets(v int) []int32 {
	return h.vtxNets[h.vtxStart[v]:h.vtxStart[v+1]]
}

// Degree returns the number of nets incident to vertex v.
func (h *Hypergraph) Degree(v int) int {
	return int(h.vtxStart[v+1] - h.vtxStart[v])
}

// Weight returns the computational weight of vertex v.
func (h *Hypergraph) Weight(v int) int64 { return h.weights[v] }

// Weights returns the vertex weights, indexed by vertex. The slice is
// shared with h and must not be modified.
func (h *Hypergraph) Weights() []int64 { return h.weights }

// Size returns the migration data size of vertex v.
func (h *Hypergraph) Size(v int) int64 { return h.sizes[v] }

// Cost returns the communication cost of net n.
func (h *Hypergraph) Cost(n int) int64 { return h.costs[n] }

// Fixed returns the part vertex v is fixed to, or Free.
func (h *Hypergraph) Fixed(v int) int32 {
	if h.fixed == nil {
		return Free
	}
	return h.fixed[v]
}

// HasFixed reports whether any vertex carries a fixed-part label.
func (h *Hypergraph) HasFixed() bool { return h.fixed != nil }

// TotalWeight returns the sum of all vertex weights.
func (h *Hypergraph) TotalWeight() int64 {
	var t int64
	for _, w := range h.weights {
		t += w
	}
	return t
}

// TotalSize returns the sum of all vertex sizes.
func (h *Hypergraph) TotalSize() int64 {
	var t int64
	for _, s := range h.sizes {
		t += s
	}
	return t
}

// TotalCost returns the sum of all net costs.
func (h *Hypergraph) TotalCost() int64 {
	var t int64
	for _, c := range h.costs {
		t += c
	}
	return t
}

// Clone returns a deep copy of h. The fixed labels, if any, are copied too.
func (h *Hypergraph) Clone() *Hypergraph {
	c := &Hypergraph{
		netStart:  append([]int32(nil), h.netStart...),
		netPins:   append([]int32(nil), h.netPins...),
		vtxStart:  append([]int32(nil), h.vtxStart...),
		vtxNets:   append([]int32(nil), h.vtxNets...),
		weights:   append([]int64(nil), h.weights...),
		sizes:     append([]int64(nil), h.sizes...),
		costs:     append([]int64(nil), h.costs...),
		finalized: true,
	}
	if h.fixed != nil {
		c.fixed = append([]int32(nil), h.fixed...)
	}
	return c
}

// WithFixed returns a shallow copy of h that carries the given fixed-part
// labels (length NumVertices, entries Free or a part id). The pin structure
// is shared with h.
func (h *Hypergraph) WithFixed(fixed []int32) *Hypergraph {
	if len(fixed) != h.NumVertices() {
		panic(fmt.Sprintf("hypergraph: fixed labels length %d != %d vertices", len(fixed), h.NumVertices()))
	}
	c := *h
	c.fixed = fixed
	return &c
}

// WithoutFixed returns a shallow copy of h with all fixed labels cleared.
func (h *Hypergraph) WithoutFixed() *Hypergraph {
	c := *h
	c.fixed = nil
	return &c
}

// ScaleCosts returns a shallow copy of h whose net costs are all multiplied
// by factor. The pin structure is shared with h.
func (h *Hypergraph) ScaleCosts(factor int64) *Hypergraph {
	c := *h
	c.costs = make([]int64, len(h.costs))
	for i, v := range h.costs {
		c.costs[i] = v * factor
	}
	return &c
}

// Validate checks structural invariants and returns a descriptive error if
// any is violated. A finalized Builder output always validates.
func (h *Hypergraph) Validate() error {
	nv, nn := h.NumVertices(), h.NumNets()
	if len(h.netStart) != nn+1 {
		return fmt.Errorf("netStart length %d, want %d", len(h.netStart), nn+1)
	}
	if len(h.vtxStart) != nv+1 {
		return fmt.Errorf("vtxStart length %d, want %d", len(h.vtxStart), nv+1)
	}
	if h.netStart[0] != 0 || int(h.netStart[nn]) != len(h.netPins) {
		return fmt.Errorf("netStart bounds invalid")
	}
	seen := make([]int32, nv) // seen[v] == n+1: v already pins net n
	for n := 0; n < nn; n++ {
		if h.netStart[n] > h.netStart[n+1] {
			return fmt.Errorf("netStart not monotone at net %d", n)
		}
		for _, v := range h.Pins(n) {
			if v < 0 || int(v) >= nv {
				return fmt.Errorf("net %d has out-of-range pin %d", n, v)
			}
			if seen[v] == int32(n+1) {
				return fmt.Errorf("net %d has duplicate pin %d", n, v)
			}
			seen[v] = int32(n + 1)
		}
	}
	if len(h.vtxNets) != len(h.netPins) {
		return fmt.Errorf("vertex CSR has %d entries, want %d", len(h.vtxNets), len(h.netPins))
	}
	for v := 0; v < nv; v++ {
		for _, n := range h.Nets(v) {
			if n < 0 || int(n) >= nn {
				return fmt.Errorf("vertex %d lists out-of-range net %d", v, n)
			}
			found := false
			for _, p := range h.Pins(int(n)) {
				if int(p) == v {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("vertex %d lists net %d which does not pin it", v, n)
			}
		}
	}
	for v, w := range h.weights {
		if w < 0 {
			return fmt.Errorf("vertex %d has negative weight %d", v, w)
		}
	}
	for v, s := range h.sizes {
		if s < 0 {
			return fmt.Errorf("vertex %d has negative size %d", v, s)
		}
	}
	for n, c := range h.costs {
		if c < 0 {
			return fmt.Errorf("net %d has negative cost %d", n, c)
		}
	}
	if h.fixed != nil && len(h.fixed) != nv {
		return fmt.Errorf("fixed labels length %d, want %d", len(h.fixed), nv)
	}
	return nil
}

// String returns a short diagnostic summary.
func (h *Hypergraph) String() string {
	return fmt.Sprintf("Hypergraph{V=%d N=%d pins=%d fixed=%v}",
		h.NumVertices(), h.NumNets(), h.NumPins(), h.fixed != nil)
}

// SortedPins returns the pins of net n as a freshly allocated sorted slice.
// Useful for deterministic comparisons in tests and net hashing. Hot paths
// should prefer SortedPinsInto with a reused buffer.
func (h *Hypergraph) SortedPins(n int) []int32 {
	return h.SortedPinsInto(n, nil)
}

// SortedPinsInto writes the sorted pins of net n into buf (grown as
// needed) and returns the filled slice, avoiding the per-call copy and
// closure sort of SortedPins.
func (h *Hypergraph) SortedPinsInto(n int, buf []int32) []int32 {
	buf = append(buf[:0], h.Pins(n)...)
	slices.Sort(buf)
	return buf
}
