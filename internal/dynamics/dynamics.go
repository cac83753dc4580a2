// Package dynamics implements the paper's two synthetic dynamic-workload
// generators (Section 5):
//
//   - Structural: "biased random perturbations that change the structure of
//     the data" — at each iteration a different random subset of the
//     original vertices is deleted along with incident edges, so the
//     problem both loses and gains vertices over time. The reported
//     configuration deletes 25% of the total vertex count drawn from half
//     of the partitions.
//
//   - Refinement: "simulated adaptive mesh refinement" — at each iteration
//     a fraction (10%) of the partitions is selected and every vertex in
//     them has its weight and size scaled to a uniform random multiple
//     (1.5x to 7.5x) of its original value.
//
// Both generators speak a two-phase protocol: Next() yields the epoch's
// problem together with the inherited ("old") partition over the epoch's
// vertex set; after the balancer runs, Observe() records the computed
// partition so the next epoch inherits it.
package dynamics

import (
	"fmt"
	"math/rand"

	"hyperbal/internal/core"
	"hyperbal/internal/graph"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

// The paper's configuration of the two dynamics (Section 5): the
// structural one deletes StructureVertices of |V| drawn from
// StructureParts of the parts; the refinement one scales the vertices of
// RefinedParts of the parts by U(RefineMinFactor, RefineMaxFactor).
const (
	StructureVertices = 0.25
	StructureParts    = 0.5
	RefinedParts      = 0.1
	RefineMinFactor   = 1.5
	RefineMaxFactor   = 7.5
)

// Generator is the epoch-sequence protocol shared by both dynamics.
type Generator interface {
	// Next produces the next epoch's problem and the partition inherited
	// from the previous epoch (over the new epoch's vertex numbering).
	Next() (core.Problem, partition.Partition)
	// Observe records the partition computed for the epoch most recently
	// returned by Next.
	Observe(p partition.Partition) error
}

// Structural implements the vertex deletion/reappearance dynamic.
type Structural struct {
	orig     *graph.Graph
	k        int
	vertFrac float64 // fraction of |V| deleted each epoch (paper: 0.25)
	partFrac float64 // fraction of parts targeted (paper: 0.5)
	rng      *rand.Rand

	lastPart []int32 // per original vertex: last known part
	alive    []int32 // current epoch: epoch vertex -> original vertex
	prev     []int32 // previous epoch's alive; epoch 0's is every vertex
}

// NewStructural creates the structural perturbation generator. init is a
// partition of the full original graph (the epoch-1 static partition);
// vertices re-entering the problem are attributed to the part that last
// owned them, which is where the application would have created them.
func NewStructural(orig *graph.Graph, init partition.Partition, k int, vertFrac, partFrac float64, seed int64) (*Structural, error) {
	if len(init.Parts) != orig.NumVertices() {
		return nil, fmt.Errorf("dynamics: init partition covers %d vertices, graph has %d", len(init.Parts), orig.NumVertices())
	}
	if vertFrac < 0 || vertFrac >= 1 {
		return nil, fmt.Errorf("dynamics: vertex fraction %v out of [0,1)", vertFrac)
	}
	if partFrac <= 0 || partFrac > 1 {
		return nil, fmt.Errorf("dynamics: part fraction %v out of (0,1]", partFrac)
	}
	all := make([]int32, orig.NumVertices())
	for v := range all {
		all[v] = int32(v)
	}
	return &Structural{
		orig:     orig,
		k:        k,
		vertFrac: vertFrac,
		partFrac: partFrac,
		rng:      rand.New(rand.NewSource(seed)),
		lastPart: append([]int32(nil), init.Parts...),
		alive:    all,
	}, nil
}

// Next deletes a fresh random subset of the original vertices — drawn from
// a randomly selected half of the parts — and returns the induced
// subproblem plus the inherited partition.
func (s *Structural) Next() (core.Problem, partition.Partition) {
	n := s.orig.NumVertices()
	// Select the target parts.
	numSel := int(float64(s.k)*s.partFrac + 0.5)
	if numSel < 1 {
		numSel = 1
	}
	selected := make([]bool, s.k)
	for _, p := range s.rng.Perm(s.k)[:numSel] {
		selected[p] = true
	}
	// Candidate pool: vertices whose last-known part is selected.
	var pool []int32
	for v := 0; v < n; v++ {
		if selected[s.lastPart[v]] {
			pool = append(pool, int32(v))
		}
	}
	// Delete vertFrac * |V| vertices from the pool (all of it if smaller).
	del := int(float64(n) * s.vertFrac)
	if del > len(pool) {
		del = len(pool)
	}
	deleted := make([]bool, n)
	for _, i := range s.rng.Perm(len(pool))[:del] {
		deleted[pool[i]] = true
	}

	// Build the induced subgraph on alive vertices.
	s.prev, s.alive = s.alive, s.prev[:0]
	newID := make([]int32, n)
	for v := 0; v < n; v++ {
		if deleted[v] {
			newID[v] = -1
		} else {
			newID[v] = int32(len(s.alive))
			s.alive = append(s.alive, int32(v))
		}
	}
	b := graph.NewBuilder(len(s.alive))
	inherited := partition.Partition{Parts: make([]int32, len(s.alive)), K: s.k}
	for i, ov := range s.alive {
		b.SetWeight(i, s.orig.Weight(int(ov)))
		b.SetSize(i, s.orig.Size(int(ov)))
		inherited.Parts[i] = s.lastPart[ov]
		adj, wts := s.orig.Adj(int(ov)), s.orig.AdjWeights(int(ov))
		for j, u := range adj {
			if int(u) > int(ov) && newID[u] >= 0 {
				b.AddEdge(i, int(newID[u]), wts[j])
			}
		}
	}
	g := b.Build()
	return core.Problem{G: g, H: graph.ToHypergraph(g)}, inherited
}

// VertexMap returns the vertex map of the latest Next's transition, the
// hypergraph.Delta VertexMap from the previous epoch to this one: entry j
// is the previous epoch's index of this epoch's vertex j, or -1 when the
// vertex returns after a deletion. The first Next's previous epoch is the
// original graph. Valid after Next; each call builds a fresh map.
func (s *Structural) VertexMap() []int32 {
	// Both alive lists hold original ids in increasing order, so one merge
	// pass pairs the survivors.
	vmap := make([]int32, len(s.alive))
	i := 0
	for j, id := range s.alive {
		for i < len(s.prev) && s.prev[i] < id {
			i++
		}
		if i < len(s.prev) && s.prev[i] == id {
			vmap[j] = int32(i)
		} else {
			vmap[j] = -1
		}
	}
	return vmap
}

// Observe records the epoch's computed partition back onto the original
// vertex numbering.
func (s *Structural) Observe(p partition.Partition) error {
	if len(p.Parts) != len(s.alive) {
		return fmt.Errorf("dynamics: observed partition covers %d vertices, epoch has %d", len(p.Parts), len(s.alive))
	}
	for i, ov := range s.alive {
		s.lastPart[ov] = p.Parts[i]
	}
	return nil
}

// Refinement implements the simulated adaptive-mesh-refinement dynamic.
type Refinement struct {
	orig     *graph.Graph
	k        int
	partFrac float64 // fraction of parts refined each epoch (paper: 0.1)
	minF     float64 // lower scale bound (paper: 1.5)
	maxF     float64 // upper scale bound (paper: 7.5)
	rng      *rand.Rand

	lastPart []int32
	curW     []int64
	curS     []int64
}

// NewRefinement creates the weight/size refinement generator.
func NewRefinement(orig *graph.Graph, init partition.Partition, k int, partFrac, minF, maxF float64, seed int64) (*Refinement, error) {
	if len(init.Parts) != orig.NumVertices() {
		return nil, fmt.Errorf("dynamics: init partition covers %d vertices, graph has %d", len(init.Parts), orig.NumVertices())
	}
	if partFrac <= 0 || partFrac > 1 {
		return nil, fmt.Errorf("dynamics: part fraction %v out of (0,1]", partFrac)
	}
	if minF < 1 || maxF < minF {
		return nil, fmt.Errorf("dynamics: bad scale range [%v,%v]", minF, maxF)
	}
	r := &Refinement{
		orig:     orig,
		k:        k,
		partFrac: partFrac,
		minF:     minF,
		maxF:     maxF,
		rng:      rand.New(rand.NewSource(seed)),
		lastPart: append([]int32(nil), init.Parts...),
		curW:     make([]int64, orig.NumVertices()),
		curS:     make([]int64, orig.NumVertices()),
	}
	for v := 0; v < orig.NumVertices(); v++ {
		r.curW[v] = orig.Weight(v)
		r.curS[v] = orig.Size(v)
	}
	return r, nil
}

// Next refines a random partFrac of the parts: each vertex in a refined
// part gets weight and size set to a fresh uniform multiple in
// [minF, maxF] of its original value (bounded, per the paper, relative to
// the original data rather than compounding).
func (r *Refinement) Next() (core.Problem, partition.Partition) {
	n := r.orig.NumVertices()
	numSel := int(float64(r.k)*r.partFrac + 0.5)
	if numSel < 1 {
		numSel = 1
	}
	selected := make([]bool, r.k)
	for _, p := range r.rng.Perm(r.k)[:numSel] {
		selected[p] = true
	}
	for v := 0; v < n; v++ {
		if selected[r.lastPart[v]] {
			f := r.minF + r.rng.Float64()*(r.maxF-r.minF)
			r.curW[v] = int64(float64(r.orig.Weight(v)) * f)
			r.curS[v] = int64(float64(r.orig.Size(v)) * f)
			if r.curW[v] < 1 {
				r.curW[v] = 1
			}
			if r.curS[v] < 1 {
				r.curS[v] = 1
			}
		}
	}
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetWeight(v, r.curW[v])
		b.SetSize(v, r.curS[v])
		adj, wts := r.orig.Adj(v), r.orig.AdjWeights(v)
		for i, u := range adj {
			if int(u) > v {
				b.AddEdge(v, int(u), wts[i])
			}
		}
	}
	g := b.Build()
	inherited := partition.Partition{Parts: append([]int32(nil), r.lastPart...), K: r.k}
	return core.Problem{G: g, H: graph.ToHypergraph(g)}, inherited
}

// Observe records the epoch's computed partition.
func (r *Refinement) Observe(p partition.Partition) error {
	if len(p.Parts) != len(r.lastPart) {
		return fmt.Errorf("dynamics: observed partition covers %d vertices, want %d", len(p.Parts), len(r.lastPart))
	}
	copy(r.lastPart, p.Parts)
	return nil
}

// Transitions expresses a generator's epoch transitions as hypergraph
// deltas, for warm repartitioning: each epoch's hypergraph is diffed
// against the previous epoch's, through the structural dynamic's
// VertexMap when vertices come and go.
type Transitions struct {
	gen  Generator
	base *hypergraph.Hypergraph
}

// NewTransitions starts the sequence at base, the hypergraph of the
// original problem gen was built over.
func NewTransitions(gen Generator, base *hypergraph.Hypergraph) *Transitions {
	return &Transitions{gen: gen, base: base}
}

// Dirty returns the vertices of next, the hypergraph of gen's latest
// Next, that the delta from the previous epoch's hypergraph touches, or
// nil when no delta expresses the transition. next becomes the previous
// epoch's hypergraph of the following call.
func (t *Transitions) Dirty(next *hypergraph.Hypergraph) []bool {
	var d *hypergraph.Delta
	var ok bool
	if st, isStruct := t.gen.(*Structural); isStruct {
		d, ok = hypergraph.ComputeDeltaMapped(t.base, next, st.VertexMap())
	} else {
		d, ok = hypergraph.ComputeDelta(t.base, next)
	}
	base := t.base
	t.base = next
	if !ok {
		return nil
	}
	return d.DirtyVertices(base, next)
}
